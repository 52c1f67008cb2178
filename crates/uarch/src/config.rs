//! Core configurations: the Snapdragon 855 presets (Table 3, §5.5) and
//! the decode-way / ASIMD-unit sweep of Figure 5(b).
//!
//! [`CoreId`] is the *registry* of every named configuration the
//! campaign can simulate: a stable, parseable identifier that scenario
//! plans, golden baselines, and CLI filters use as the core key, with
//! [`CoreId::config`] as the single place an id becomes concrete
//! [`CoreConfig`] parameters.

use crate::cache::MemConfig;

/// Stable identifier of a named core configuration.
///
/// Every simulated core the paper's matrix uses has an entry here; the
/// string form ([`CoreId::id`] / [`CoreId::parse`]) is the key used by
/// scenario ids, golden-baseline entries, and `swan-report --only`
/// filters, so it must never change meaning once a baseline has been
/// committed against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoreId {
    /// Snapdragon 855 Prime core (Cortex-A76, 2.8 GHz) — Table 3.
    Prime,
    /// Gold core (Cortex-A76, 2.4 GHz) — §5.5.
    Gold,
    /// Silver core (Cortex-A55, 1.8 GHz, in-order) — §5.5.
    Silver,
    /// Figure 5(b) sweep: 4-wide decode, 2 ASIMD units (the baseline).
    Sweep4W2V,
    /// Figure 5(b) sweep: 4-wide decode, 4 ASIMD units.
    Sweep4W4V,
    /// Figure 5(b) sweep: 4-wide decode, 6 ASIMD units.
    Sweep4W6V,
    /// Figure 5(b) sweep: 6-wide decode, 6 ASIMD units.
    Sweep6W6V,
    /// Figure 5(b) sweep: 4-wide decode, 8 ASIMD units.
    Sweep4W8V,
    /// Figure 5(b) sweep: 8-wide decode, 8 ASIMD units.
    Sweep8W8V,
}

impl CoreId {
    /// Every registered core, Figure 4 cores first, then the
    /// Figure 5(b) sweep in paper order.
    pub const ALL: [CoreId; 9] = [
        CoreId::Prime,
        CoreId::Gold,
        CoreId::Silver,
        CoreId::Sweep4W2V,
        CoreId::Sweep4W4V,
        CoreId::Sweep4W6V,
        CoreId::Sweep6W6V,
        CoreId::Sweep4W8V,
        CoreId::Sweep8W8V,
    ];

    /// The three Snapdragon 855 cores of Figure 4.
    pub const BASE: [CoreId; 3] = [CoreId::Prime, CoreId::Gold, CoreId::Silver];

    /// The six Figure 5(b) sweep configurations, in paper order:
    /// `4W-2V, 4W-4V, 4W-6V, 6W-6V, 4W-8V, 8W-8V`.
    pub const FIG5B: [CoreId; 6] = [
        CoreId::Sweep4W2V,
        CoreId::Sweep4W4V,
        CoreId::Sweep4W6V,
        CoreId::Sweep6W6V,
        CoreId::Sweep4W8V,
        CoreId::Sweep8W8V,
    ];

    /// The stable string id (`"prime"`, `"4w-2v"`, ...).
    pub fn id(self) -> &'static str {
        match self {
            CoreId::Prime => "prime",
            CoreId::Gold => "gold",
            CoreId::Silver => "silver",
            CoreId::Sweep4W2V => "4w-2v",
            CoreId::Sweep4W4V => "4w-4v",
            CoreId::Sweep4W6V => "4w-6v",
            CoreId::Sweep6W6V => "6w-6v",
            CoreId::Sweep4W8V => "4w-8v",
            CoreId::Sweep8W8V => "8w-8v",
        }
    }

    /// Parse a stable id (case-insensitive).
    pub fn parse(s: &str) -> Option<CoreId> {
        let lower = s.to_ascii_lowercase();
        CoreId::ALL.into_iter().find(|c| c.id() == lower)
    }

    /// The concrete simulation parameters for this core.
    pub fn config(self) -> CoreConfig {
        match self {
            CoreId::Prime => CoreConfig::prime(),
            CoreId::Gold => CoreConfig::gold(),
            CoreId::Silver => CoreConfig::silver(),
            CoreId::Sweep4W2V => CoreConfig::sweep(4, 2),
            CoreId::Sweep4W4V => CoreConfig::sweep(4, 4),
            CoreId::Sweep4W6V => CoreConfig::sweep(4, 6),
            CoreId::Sweep6W6V => CoreConfig::sweep(6, 6),
            CoreId::Sweep4W8V => CoreConfig::sweep(4, 8),
            CoreId::Sweep8W8V => CoreConfig::sweep(8, 8),
        }
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// Parameters of a simulated core.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Human-readable name (for example `"Prime (Cortex-A76)"`).
    pub name: String,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Decode (front-end) width: instructions fetched+renamed per cycle.
    pub decode_width: u32,
    /// Commit (retire) width.
    pub commit_width: u32,
    /// Reorder-buffer entries. For in-order cores this acts as the
    /// small completion window.
    pub rob: u32,
    /// Number of 128-bit-class ASIMD execution pipes (vector and
    /// scalar floating-point share these, as on the Cortex-A76).
    pub asimd_units: u32,
    /// Number of scalar integer ALUs (one also executes branches).
    pub scalar_alus: u32,
    /// Load pipes.
    pub load_units: u32,
    /// Store pipes.
    pub store_units: u32,
    /// In-order issue (Cortex-A55 style) instead of out-of-order.
    pub in_order: bool,
    /// Branch misprediction redirect penalty in cycles.
    pub mispredict_penalty: u32,
    /// Misprediction rate (per mille) applied to data-dependent
    /// branches; loop back-edges are modeled as always predicted.
    pub mispredict_per_mille: u32,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Relative dynamic-energy scale (voltage/frequency point); 1.0 is
    /// the Prime core.
    pub energy_scale: f64,
    /// Static (leakage + clock-tree) power in watts while running.
    pub static_watts: f64,
}

impl CoreConfig {
    /// The evaluated baseline: Snapdragon 855 Prime core
    /// (Cortex-A76, 2.8 GHz, 4-wide, 128-entry ROB, 2 ASIMD units) —
    /// paper Table 3.
    pub fn prime() -> CoreConfig {
        CoreConfig {
            name: "Prime (Cortex-A76 2.8GHz)".into(),
            freq_ghz: 2.8,
            decode_width: 4,
            commit_width: 4,
            rob: 128,
            asimd_units: 2,
            scalar_alus: 3,
            load_units: 2,
            store_units: 1,
            in_order: false,
            mispredict_penalty: 12,
            mispredict_per_mille: 5,
            mem: MemConfig::snapdragon855(),
            energy_scale: 1.0,
            static_watts: 0.42,
        }
    }

    /// Gold core: Cortex-A76 at 2.4 GHz (same microarchitecture,
    /// lower voltage/frequency point) — §5.5.
    pub fn gold() -> CoreConfig {
        CoreConfig {
            name: "Gold (Cortex-A76 2.4GHz)".into(),
            freq_ghz: 2.4,
            energy_scale: 0.82,
            static_watts: 0.33,
            ..CoreConfig::prime()
        }
    }

    /// Silver core: Cortex-A55 at 1.8 GHz, in-order, one 128-bit ASIMD
    /// unit — §5.5.
    pub fn silver() -> CoreConfig {
        CoreConfig {
            name: "Silver (Cortex-A55 1.8GHz)".into(),
            freq_ghz: 1.8,
            decode_width: 2,
            commit_width: 2,
            rob: 16,
            asimd_units: 1,
            scalar_alus: 2,
            load_units: 1,
            store_units: 1,
            in_order: true,
            mispredict_penalty: 8,
            energy_scale: 0.45,
            static_watts: 0.12,
            ..CoreConfig::prime()
        }
    }

    /// A Figure 5(b) sweep point: `ways`-wide decode/commit with `v`
    /// ASIMD units on the Prime baseline (named e.g. `4W-2V`).
    pub fn sweep(ways: u32, v: u32) -> CoreConfig {
        CoreConfig {
            name: format!("{ways}W-{v}V"),
            decode_width: ways,
            commit_width: ways,
            asimd_units: v,
            ..CoreConfig::prime()
        }
    }

    /// The six Figure 5(b) configurations, in paper order:
    /// `4W-2V, 4W-4V, 4W-6V, 6W-6V, 4W-8V, 8W-8V`
    /// (convenience form of [`CoreId::FIG5B`]).
    pub fn fig5b_sweep() -> Vec<CoreConfig> {
        CoreId::FIG5B.into_iter().map(CoreId::config).collect()
    }

    /// Cycles-to-seconds conversion.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Whether a core model of `other` steps through every cycle
    /// exactly like one of `self`: equal in every field except
    /// `name`, `freq_ghz` (which only turns cycles into seconds) and
    /// `energy_scale`/`static_watts` (which only enter
    /// [`crate::EnergyModel`]). Two such configurations finalize to the
    /// same [`crate::SimResult`] but for `seconds`, so one model can
    /// measure both: the Gold core is the Prime core at a lower V/f
    /// point (§5.5), and the Figure 5(b) `4W-2V` baseline is Prime.
    ///
    /// The destructuring is exhaustive, so a new field does not compile
    /// until it is classified here.
    pub fn same_timing(&self, other: &CoreConfig) -> bool {
        let CoreConfig {
            name: _,
            freq_ghz: _,
            decode_width,
            commit_width,
            rob,
            asimd_units,
            scalar_alus,
            load_units,
            store_units,
            in_order,
            mispredict_penalty,
            mispredict_per_mille,
            mem,
            energy_scale: _,
            static_watts: _,
        } = self;
        *decode_width == other.decode_width
            && *commit_width == other.commit_width
            && *rob == other.rob
            && *asimd_units == other.asimd_units
            && *scalar_alus == other.scalar_alus
            && *load_units == other.load_units
            && *store_units == other.store_units
            && *in_order == other.in_order
            && *mispredict_penalty == other.mispredict_penalty
            && *mispredict_per_mille == other.mispredict_per_mille
            && *mem == other.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3() {
        let p = CoreConfig::prime();
        assert_eq!(p.rob, 128);
        assert_eq!(p.decode_width, 4);
        assert_eq!(p.asimd_units, 2);
        assert_eq!(p.freq_ghz, 2.8);
        assert!(!p.in_order);

        let s = CoreConfig::silver();
        assert!(s.in_order);
        assert_eq!(s.asimd_units, 1);
        assert!(s.freq_ghz < CoreConfig::gold().freq_ghz);
    }

    #[test]
    fn sweep_names() {
        let cfgs = CoreConfig::fig5b_sweep();
        assert_eq!(cfgs.len(), 6);
        assert_eq!(cfgs[0].name, "4W-2V");
        assert_eq!(cfgs[5].name, "8W-8V");
        assert_eq!(cfgs[5].decode_width, 8);
        assert_eq!(cfgs[5].asimd_units, 8);
    }

    #[test]
    fn registry_ids_roundtrip_and_match_constructors() {
        for c in CoreId::ALL {
            assert_eq!(CoreId::parse(c.id()), Some(c));
            assert_eq!(CoreId::parse(&c.id().to_ascii_uppercase()), Some(c));
        }
        assert_eq!(CoreId::parse("a77"), None);
        // The registry and the ad-hoc constructors are the same cores.
        assert_eq!(CoreId::Prime.config(), CoreConfig::prime());
        assert_eq!(CoreId::Gold.config(), CoreConfig::gold());
        assert_eq!(CoreId::Silver.config(), CoreConfig::silver());
        let sweep = CoreConfig::fig5b_sweep();
        for (i, c) in CoreId::FIG5B.into_iter().enumerate() {
            assert_eq!(c.config(), sweep[i]);
        }
        assert_eq!(CoreId::Sweep4W2V.config().name, "4W-2V");
    }

    #[test]
    fn same_timing_pairs_prime_gold_and_the_sweep_baseline_only() {
        let prime = CoreConfig::prime();
        for c in [CoreId::Prime, CoreId::Gold, CoreId::Sweep4W2V] {
            assert!(prime.same_timing(&c.config()), "{c}");
            assert!(c.config().same_timing(&prime), "{c}");
        }
        let others = [
            CoreId::Silver,
            CoreId::Sweep4W4V,
            CoreId::Sweep4W6V,
            CoreId::Sweep6W6V,
            CoreId::Sweep4W8V,
            CoreId::Sweep8W8V,
        ];
        for (i, a) in others.into_iter().enumerate() {
            assert!(!prime.same_timing(&a.config()), "{a} vs prime");
            for b in others.into_iter().skip(i + 1) {
                assert!(!a.config().same_timing(&b.config()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn every_timing_field_breaks_same_timing_and_no_other_does() {
        let prime = CoreConfig::prime();
        let timing: [fn(&mut CoreConfig); 12] = [
            |c| c.decode_width += 1,
            |c| c.commit_width += 1,
            |c| c.rob /= 2,
            |c| c.asimd_units += 1,
            |c| c.scalar_alus += 1,
            |c| c.load_units += 1,
            |c| c.store_units += 1,
            |c| c.in_order = !c.in_order,
            |c| c.mispredict_penalty += 1,
            |c| c.mispredict_per_mille += 1,
            |c| c.mem.l2.latency += 1,
            |c| c.mem.prefetch_degree = 0,
        ];
        for (i, perturb) in timing.into_iter().enumerate() {
            let mut c = prime.clone();
            perturb(&mut c);
            assert!(!prime.same_timing(&c), "timing field {i}");
            assert!(!c.same_timing(&prime), "timing field {i}");
        }
        let energy_or_clock: [fn(&mut CoreConfig); 4] = [
            |c| c.name = "renamed".into(),
            |c| c.freq_ghz = 1.7,
            |c| c.energy_scale = 0.5,
            |c| c.static_watts = 0.2,
        ];
        for (i, perturb) in energy_or_clock.into_iter().enumerate() {
            let mut c = prime.clone();
            perturb(&mut c);
            assert!(prime.same_timing(&c), "non-timing field {i}");
        }
    }

    #[test]
    fn time_conversion() {
        let p = CoreConfig::prime();
        let t = p.cycles_to_seconds(2_800_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
