//! From millijoules to battery life.
//!
//! The paper reports energy in joules; what a user feels is battery life.
//! This module converts streaming power into hours of battery for the
//! three measured phones, using their nominal battery capacities.

use crate::model::Phone;

/// Nominal battery of one of the measured phones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Rated capacity, mAh.
    pub capacity_mah: f64,
    /// Nominal cell voltage, volts.
    pub voltage_v: f64,
}

ee360_support::impl_json_struct!(Battery {
    capacity_mah,
    voltage_v
});

impl Battery {
    /// The phone's stock battery.
    pub fn for_phone(phone: Phone) -> Self {
        match phone {
            // LG Nexus 5X: 2700 mAh. Google Pixel 3: 2915 mAh.
            // Samsung Galaxy S20: 4000 mAh. All ~3.85 V nominal Li-ion.
            Phone::Nexus5X => Self {
                capacity_mah: 2700.0,
                voltage_v: 3.85,
            },
            Phone::Pixel3 => Self {
                capacity_mah: 2915.0,
                voltage_v: 3.85,
            },
            Phone::GalaxyS20 => Self {
                capacity_mah: 4000.0,
                voltage_v: 3.85,
            },
        }
    }

    /// Total stored energy, millijoules.
    pub fn capacity_mj(&self) -> f64 {
        // mAh × V × 3.6 = mWh × 3.6 = ... : 1 mAh at 1 V = 3.6 J = 3600 mJ.
        self.capacity_mah * self.voltage_v * 3600.0
    }

    /// How many hours of streaming a full battery sustains at the given
    /// average power.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is not strictly positive.
    pub fn hours_at(&self, power_mw: f64) -> f64 {
        assert!(
            power_mw.is_finite() && power_mw > 0.0,
            "power must be positive"
        );
        self.capacity_mj() / power_mw / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_ranked_like_the_hardware() {
        let n5x = Battery::for_phone(Phone::Nexus5X).capacity_mj();
        let p3 = Battery::for_phone(Phone::Pixel3).capacity_mj();
        let s20 = Battery::for_phone(Phone::GalaxyS20).capacity_mj();
        assert!(n5x < p3 && p3 < s20);
    }

    #[test]
    fn pixel3_capacity_value() {
        let b = Battery::for_phone(Phone::Pixel3);
        // 2915 mAh × 3.85 V = 11.22 Wh = 40.4 kJ.
        assert!((b.capacity_mj() - 40_401_900.0).abs() < 1.0);
    }

    #[test]
    fn streaming_hours_are_plausible() {
        // ~2.4 W total streaming power should give the Pixel 3 roughly
        // 4–5 hours — the ballpark real phones show.
        let b = Battery::for_phone(Phone::Pixel3);
        let hours = b.hours_at(2400.0);
        assert!((3.0..7.0).contains(&hours), "{hours} h");
    }

    #[test]
    fn energy_saving_maps_to_battery_hours() {
        // The headline claim in battery terms: cutting power from 2.4 W
        // (Ctile-like) to 1.3 W (Ours-like) buys ~80% more playtime.
        let b = Battery::for_phone(Phone::Pixel3);
        let gain = b.hours_at(1300.0) / b.hours_at(2400.0);
        assert!((gain - 2400.0 / 1300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_power_panics() {
        let _ = Battery::for_phone(Phone::Pixel3).hours_at(0.0);
    }
}
