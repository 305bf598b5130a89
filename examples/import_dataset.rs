//! Importing the real MMSys'17 dataset.
//!
//! ```sh
//! cargo run --release --example import_dataset [path/to/user_video.csv]
//! ```
//!
//! Without an argument, writes a tiny synthetic file in the dataset's CSV
//! layout and imports that — demonstrating the full path from the
//! published data format to our [`HeadTrace`] and the Fig. 5 statistics.

use std::fmt::Write as _;

use ee360::trace::head::HeadTrace;
use ee360::trace::mmsys;

fn main() {
    let (path, cleanup) = match std::env::args().nth(1) {
        Some(p) => (std::path::PathBuf::from(p), false),
        None => {
            let mut p = std::env::temp_dir();
            p.push("ee360-import-demo.csv");
            std::fs::write(&p, demo_csv()).expect("write demo CSV");
            println!(
                "no file given — wrote a synthetic demo file to {}",
                p.display()
            );
            (p, true)
        }
    };

    match mmsys::load_head_trace(&path, 1, 0) {
        Ok(trace) => report(&trace),
        Err(e) => {
            eprintln!("import failed: {e}");
            std::process::exit(1);
        }
    }
    if cleanup {
        let _ = std::fs::remove_file(&path);
    }
}

fn report(trace: &HeadTrace) {
    println!(
        "\nimported trace: video {}, user {}, {} samples over {:.1} s",
        trace.video_id(),
        trace.user_id(),
        trace.len(),
        trace.duration_sec()
    );
    let speeds = trace.switching_speeds();
    if !speeds.is_empty() {
        let above10 = speeds.iter().filter(|s| **s > 10.0).count() as f64 / speeds.len() as f64;
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        println!(
            "switching speed: mean {mean:.1}°/s, above 10°/s {:.0}% of the time",
            above10 * 100.0
        );
    }
    println!("\nsegment-level viewing centers (first 5 segments):");
    for k in 0..5usize {
        match trace.segment_center(k) {
            Some(c) => println!(
                "  segment {k}: yaw {:>7.1}°, pitch {:>6.1}°",
                c.yaw_deg(),
                c.pitch_deg()
            ),
            None => break,
        }
    }
    println!("\nthis trace can now drive any experiment: pass it as an evaluation");
    println!("user to ee360::core::client::run_session_resilient (see examples/quickstart.rs)");
}

/// A synthetic file in the dataset's layout: a slow pan with a quaternion
/// rotating about the up axis.
fn demo_csv() -> String {
    let mut out = String::from(
        "Timestamp,PlaybackTime,UnitQuaternion.w,UnitQuaternion.x,UnitQuaternion.y,UnitQuaternion.z,HmdPosition.x,HmdPosition.y,HmdPosition.z\n",
    );
    for i in 0..300 {
        let t = i as f64 * 0.02; // 50 Hz, 6 s
        let angle = t * 12.0_f64.to_radians(); // 12°/s pan
        let _ = writeln!(
            out,
            "{:.3},{:.3},{:.6},0.0,{:.6},0.0,0.0,0.0,0.0",
            1000.0 + t,
            t,
            (angle / 2.0).cos(),
            (angle / 2.0).sin(),
        );
    }
    out
}
