//! Table I: the per-phone power regression models.

/// The three phones the paper measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phone {
    /// LG Nexus 5X.
    Nexus5X,
    /// Google Pixel 3 (the phone used for the main evaluation, Fig. 9).
    Pixel3,
    /// Samsung Galaxy S20.
    GalaxyS20,
}

ee360_support::impl_json_enum!(Phone {
    Nexus5X,
    Pixel3,
    GalaxyS20
});

impl Phone {
    /// All phones, in Table I column order.
    pub const ALL: [Phone; 3] = [Phone::Nexus5X, Phone::Pixel3, Phone::GalaxyS20];

    /// Human-readable name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Phone::Nexus5X => "Nexus 5X",
            Phone::Pixel3 => "Pixel 3",
            Phone::GalaxyS20 => "Galaxy S20",
        }
    }
}

/// Which decoding pipeline a scheme uses — Table I gives one `P_d(f)` row
/// per scheme because the decoder count and pipeline complexity differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderScheme {
    /// Conventional 4×8 tiles, four concurrent decoders.
    Ctile,
    /// Fixed number of variable-size tiles, multiple decoders.
    Ftile,
    /// Whole-frame video, one decoder.
    Nontile,
    /// One Ptile, one decoder.
    Ptile,
}

ee360_support::impl_json_enum!(DecoderScheme {
    Ctile,
    Ftile,
    Nontile,
    Ptile
});

impl DecoderScheme {
    /// All schemes, in Table I row order.
    pub const ALL: [DecoderScheme; 4] = [
        DecoderScheme::Ctile,
        DecoderScheme::Ftile,
        DecoderScheme::Nontile,
        DecoderScheme::Ptile,
    ];

    /// The variant's name, as `{:?}` and the JSON form spell it: a
    /// static string, so a trace event can name a scheme without
    /// allocating.
    pub fn label(&self) -> &'static str {
        match self {
            DecoderScheme::Ctile => "Ctile",
            DecoderScheme::Ftile => "Ftile",
            DecoderScheme::Nontile => "Nontile",
            DecoderScheme::Ptile => "Ptile",
        }
    }

    /// This scheme's Table I row (its position in [`DecoderScheme::ALL`]).
    pub fn row(&self) -> usize {
        match self {
            DecoderScheme::Ctile => 0,
            DecoderScheme::Ftile => 1,
            DecoderScheme::Nontile => 2,
            DecoderScheme::Ptile => 3,
        }
    }
}

/// A linear power model `P(f) = base + slope · f`, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPower {
    /// Intercept in mW.
    pub base_mw: f64,
    /// Slope in mW per fps.
    pub slope_mw_per_fps: f64,
}

ee360_support::impl_json_struct!(LinearPower {
    base_mw,
    slope_mw_per_fps
});

impl LinearPower {
    /// Creates a linear power model.
    pub fn new(base_mw: f64, slope_mw_per_fps: f64) -> Self {
        Self {
            base_mw,
            slope_mw_per_fps,
        }
    }

    /// Evaluates the model at a frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is negative or not finite.
    pub fn at(&self, fps: f64) -> f64 {
        assert!(fps.is_finite() && fps >= 0.0, "fps must be non-negative");
        self.base_mw + self.slope_mw_per_fps * fps
    }
}

/// The complete Table I model for one phone.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    phone: Phone,
    transmission_mw: f64,
    decode: [LinearPower; 4], // indexed by DecoderScheme::ALL order
    render: LinearPower,
}

ee360_support::impl_json_struct!(PowerModel {
    phone,
    transmission_mw,
    decode,
    render
});

impl PowerModel {
    /// Builds the Table I model for a phone.
    pub fn for_phone(phone: Phone) -> Self {
        let lp = LinearPower::new;
        match phone {
            Phone::Nexus5X => Self {
                phone,
                transmission_mw: 1709.12,
                decode: [
                    lp(1160.41, 16.53), // Ctile
                    lp(832.45, 15.31),  // Ftile
                    lp(447.17, 14.51),  // Nontile
                    lp(210.65, 5.55),   // Ptile
                ],
                render: lp(79.46, 11.74),
            },
            Phone::Pixel3 => Self {
                phone,
                transmission_mw: 1429.08,
                decode: [
                    lp(574.89, 15.46),
                    lp(386.45, 13.23),
                    lp(209.92, 10.95),
                    lp(140.73, 5.96),
                ],
                render: lp(57.76, 4.19),
            },
            Phone::GalaxyS20 => Self {
                phone,
                transmission_mw: 1527.39,
                decode: [
                    lp(798.99, 16.49),
                    lp(658.41, 14.69),
                    lp(305.55, 11.41),
                    lp(152.72, 6.13),
                ],
                render: lp(108.21, 3.98),
            },
        }
    }

    /// The phone this model describes.
    pub fn phone(&self) -> Phone {
        self.phone
    }

    /// Wireless-interface power while downloading, in mW (`P_t`).
    pub fn transmission_power_mw(&self) -> f64 {
        self.transmission_mw
    }

    /// Decoding power at a frame rate, in mW (`P_d(f)`), for a scheme.
    pub fn decode_power_mw(&self, scheme: DecoderScheme, fps: f64) -> f64 {
        self.decode[scheme.row()].at(fps)
    }

    /// Rendering power at a frame rate, in mW (`P_r(f)`).
    pub fn render_power_mw(&self, fps: f64) -> f64 {
        self.render.at(fps)
    }

    /// The raw decode model for a scheme (for table printing).
    pub fn decode_model(&self, scheme: DecoderScheme) -> LinearPower {
        self.decode[scheme.row()]
    }

    /// The raw render model (for table printing).
    pub fn render_model(&self) -> LinearPower {
        self.render
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_spell_the_debug_names() {
        // `decoder_switch` trace events carry these labels, so this pins
        // the event's JSON to the Debug names.
        for scheme in DecoderScheme::ALL {
            assert_eq!(scheme.label(), format!("{scheme:?}"));
        }
    }

    #[test]
    fn table1_transmission_values() {
        assert_eq!(
            PowerModel::for_phone(Phone::Nexus5X).transmission_power_mw(),
            1709.12
        );
        assert_eq!(
            PowerModel::for_phone(Phone::Pixel3).transmission_power_mw(),
            1429.08
        );
        assert_eq!(
            PowerModel::for_phone(Phone::GalaxyS20).transmission_power_mw(),
            1527.39
        );
    }

    #[test]
    fn table1_decode_at_30fps_pixel3() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        assert!(
            (m.decode_power_mw(DecoderScheme::Ctile, 30.0) - (574.89 + 15.46 * 30.0)).abs() < 1e-9
        );
        assert!(
            (m.decode_power_mw(DecoderScheme::Ftile, 30.0) - (386.45 + 13.23 * 30.0)).abs() < 1e-9
        );
        assert!(
            (m.decode_power_mw(DecoderScheme::Nontile, 30.0) - (209.92 + 10.95 * 30.0)).abs()
                < 1e-9
        );
        assert!(
            (m.decode_power_mw(DecoderScheme::Ptile, 30.0) - (140.73 + 5.96 * 30.0)).abs() < 1e-9
        );
    }

    #[test]
    fn ptile_decoding_cheapest_on_all_phones() {
        for phone in Phone::ALL {
            let m = PowerModel::for_phone(phone);
            for fps in [21.0, 24.0, 27.0, 30.0] {
                let ptile = m.decode_power_mw(DecoderScheme::Ptile, fps);
                for scheme in [
                    DecoderScheme::Ctile,
                    DecoderScheme::Ftile,
                    DecoderScheme::Nontile,
                ] {
                    assert!(
                        ptile < m.decode_power_mw(scheme, fps),
                        "{phone:?} {scheme:?} at {fps} fps"
                    );
                }
            }
        }
    }

    #[test]
    fn ctile_most_expensive_decode() {
        for phone in Phone::ALL {
            let m = PowerModel::for_phone(phone);
            let ctile = m.decode_power_mw(DecoderScheme::Ctile, 30.0);
            for scheme in [
                DecoderScheme::Ftile,
                DecoderScheme::Nontile,
                DecoderScheme::Ptile,
            ] {
                assert!(ctile > m.decode_power_mw(scheme, 30.0));
            }
        }
    }

    #[test]
    fn lower_framerate_saves_power() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        for scheme in DecoderScheme::ALL {
            assert!(m.decode_power_mw(scheme, 21.0) < m.decode_power_mw(scheme, 30.0));
        }
        assert!(m.render_power_mw(21.0) < m.render_power_mw(30.0));
    }

    #[test]
    fn render_values_match_table1() {
        assert!(
            (PowerModel::for_phone(Phone::Nexus5X).render_power_mw(10.0) - (79.46 + 117.4)).abs()
                < 1e-9
        );
        assert!(
            (PowerModel::for_phone(Phone::GalaxyS20).render_power_mw(0.0) - 108.21).abs() < 1e-12
        );
    }

    #[test]
    fn phone_names() {
        assert_eq!(Phone::Pixel3.name(), "Pixel 3");
        assert_eq!(Phone::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fps_panics() {
        let m = PowerModel::for_phone(Phone::Pixel3);
        let _ = m.decode_power_mw(DecoderScheme::Ptile, -1.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = PowerModel::for_phone(Phone::Nexus5X);
        let json = ee360_support::json::to_string(&m).unwrap();
        let back: PowerModel = ee360_support::json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
