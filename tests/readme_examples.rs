//! README's `## Examples` table must name exactly the programs in
//! `examples/`, so adding or deleting an example cannot leave the table
//! stale.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The example names in README's `## Examples` table: the first
/// backticked word of each row, arguments stripped.
fn readme_example_names(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .skip_while(|l| l.trim() != "## Examples")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|cell| cell.split(['`', ' ']).next())
        .map(str::to_owned)
        .collect()
}

/// The stems of `examples/*.rs`.
fn example_stems(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .expect("examples/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .expect("UTF-8 file name")
                .to_owned()
        })
        .collect()
}

#[test]
fn readme_examples_table_matches_the_examples_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let listed = readme_example_names(&readme);
    let present = example_stems(&root.join("examples"));
    assert!(!present.is_empty(), "no examples found");
    assert_eq!(
        listed, present,
        "README's Examples table and examples/*.rs disagree"
    );
}
