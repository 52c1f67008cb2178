//! Event-based chip power and energy model.
//!
//! The paper measures whole-chip power (including DRAM) from battery
//! current/voltage (§4.3); we reconstruct it from simulator activity:
//! per-instruction dynamic energy (scaled by instruction class and, for
//! vector ops, by register width), per-level cache access energy, DRAM
//! access energy, and the core's static power over the run's wall-clock
//! time. Calibrated so the Prime core lands in the paper's observed
//! 0.7–2.4 W band (Figure 3), with vectorized image-processing
//! workloads — the heaviest DRAM users — at the top.

use crate::config::CoreConfig;
use crate::core::SimResult;
use swan_simd::trace::{Class, CLASS_COUNT};

/// Energy coefficients in picojoules per event.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    /// Scalar integer op.
    pub scalar_pj: f64,
    /// Scalar FP op.
    pub scalar_fp_pj: f64,
    /// Vector op on a 128-bit register; wider registers scale linearly.
    pub vector_pj: f64,
    /// L1 access.
    pub l1_pj: f64,
    /// L2 access (on L1 miss).
    pub l2_pj: f64,
    /// LLC access (on L2 miss).
    pub llc_pj: f64,
    /// DRAM access (LLC miss), including IO.
    pub dram_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            scalar_pj: 28.0,
            scalar_fp_pj: 45.0,
            vector_pj: 95.0,
            l1_pj: 22.0,
            l2_pj: 140.0,
            llc_pj: 450.0,
            dram_pj: 9000.0,
        }
    }
}

/// Energy accounting for one simulated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic energy (J).
    pub core_j: f64,
    /// Cache hierarchy energy (J).
    pub cache_j: f64,
    /// DRAM energy (J).
    pub dram_j: f64,
    /// Static energy over the run (J).
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.core_j + self.cache_j + self.dram_j + self.static_j
    }
}

impl EnergyModel {
    /// Energy for a simulated run on `cfg` with average active vector
    /// width `width_factor` (1.0 = 128-bit registers).
    pub fn energy(&self, res: &SimResult, cfg: &CoreConfig, width_factor: f64) -> EnergyBreakdown {
        let mut core_pj = 0.0;
        for c in Class::ALL {
            let n = res.by_class[c as usize] as f64;
            core_pj += n * match c {
                Class::SInt => self.scalar_pj,
                Class::SFloat => self.scalar_fp_pj,
                Class::VLoad
                | Class::VStore
                | Class::VInt
                | Class::VFloat
                | Class::VCrypto
                | Class::VMisc => self.vector_pj * width_factor,
            };
        }
        debug_assert_eq!(CLASS_COUNT, 8);
        let cache_pj = res.l1d.accesses as f64 * self.l1_pj
            + res.l2.accesses as f64 * self.l2_pj
            + res.llc.accesses as f64 * self.llc_pj;
        let dram_pj = res.dram_accesses as f64 * self.dram_pj;
        let scale = cfg.energy_scale;
        EnergyBreakdown {
            core_j: core_pj * scale * 1e-12,
            cache_j: cache_pj * scale * 1e-12,
            dram_j: dram_pj * 1e-12, // DRAM doesn't scale with core DVFS
            static_j: cfg.static_watts * res.seconds,
        }
    }

    /// Average chip power in watts for a simulated run.
    pub fn power_watts(&self, res: &SimResult, cfg: &CoreConfig, width_factor: f64) -> f64 {
        if res.seconds == 0.0 {
            return 0.0;
        }
        self.energy(res, cfg, width_factor).total_j() / res.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use swan_simd::trace::stream_into;
    use swan_simd::{scalar, TraceInstr, VecSink, Vreg, Width};

    fn trace_of(f: impl FnOnce()) -> Vec<TraceInstr> {
        stream_into(VecSink::default(), f).1.instrs
    }

    fn sim(f: impl FnOnce()) -> SimResult {
        crate::simulate(&trace_of(f), &CoreConfig::prime())
    }

    #[test]
    fn power_is_in_mobile_band() {
        let r = sim(|| {
            let data: Vec<u8> = vec![7; 4096];
            let mut out = vec![0u8; 4096];
            let w = Width::W128;
            for off in (0..4096).step_by(16) {
                let v = Vreg::<u8>::load(w, &data, off);
                v.sat_add(v).store(&mut out, off);
            }
        });
        let m = EnergyModel::default();
        let p = m.power_watts(&r, &CoreConfig::prime(), 1.0);
        assert!(
            p > 0.3 && p < 4.0,
            "power {p} W outside plausible mobile band"
        );
    }

    #[test]
    fn dram_traffic_raises_power() {
        // Same instruction mix, one fitting in L1, one streaming far.
        let small = sim(|| {
            let data: Vec<u8> = vec![7; 4096];
            let w = Width::W128;
            let mut acc = Vreg::<u8>::zero(w);
            for _ in 0..64 {
                for off in (0..4096).step_by(16) {
                    acc = acc.add(Vreg::load(w, &data, off));
                }
            }
        });
        let big = sim(|| {
            let data: Vec<u8> = vec![7; 4 << 20];
            let w = Width::W128;
            let mut acc = Vreg::<u8>::zero(w);
            for off in (0..(4 << 20)).step_by(256) {
                acc = acc.add(Vreg::load(w, &data, off));
            }
        });
        let m = EnergyModel::default();
        let cfg = CoreConfig::prime();
        let p_small = m.power_watts(&small, &cfg, 1.0);
        let p_big = m.power_watts(&big, &cfg, 1.0);
        assert!(
            p_big > p_small,
            "DRAM-heavy run must draw more power: {p_big} vs {p_small}"
        );
    }

    #[test]
    fn energy_scales_with_work_not_time() {
        let m = EnergyModel::default();
        let cfg = CoreConfig::prime();
        let r1 = sim(|| {
            let mut a = scalar::lit(0u32);
            for _ in 0..1000 {
                a = a + 1u32;
            }
        });
        let r2 = sim(|| {
            let mut a = scalar::lit(0u32);
            for _ in 0..2000 {
                a = a + 1u32;
            }
        });
        let e1 = m.energy(&r1, &cfg, 1.0).total_j();
        let e2 = m.energy(&r2, &cfg, 1.0).total_j();
        assert!(e2 > 1.8 * e1 && e2 < 2.4 * e1, "e1={e1} e2={e2}");
    }

    #[test]
    fn silver_draws_less_power_than_prime() {
        let data: Vec<f32> = vec![1.0; 8192];
        let t = trace_of(|| {
            let w = Width::W128;
            let mut acc = Vreg::<f32>::zero(w);
            for off in (0..8192).step_by(4) {
                acc = acc.mla(Vreg::load(w, &data, off), Vreg::load(w, &data, off));
            }
        });
        let m = EnergyModel::default();
        let prime_cfg = CoreConfig::prime();
        let silver_cfg = CoreConfig::silver();
        let rp = crate::simulate(&t, &prime_cfg);
        let rs = crate::simulate(&t, &silver_cfg);
        let pp = m.power_watts(&rp, &prime_cfg, 1.0);
        let ps = m.power_watts(&rs, &silver_cfg, 1.0);
        assert!(ps < pp, "Silver {ps} W must be below Prime {pp} W");
    }

    #[test]
    fn wider_registers_cost_proportionally_more_energy_per_op() {
        let m = EnergyModel::default();
        let cfg = CoreConfig::prime();
        let r = sim(|| {
            let w = Width::W128;
            let a = Vreg::<u8>::splat(w, 1);
            for _ in 0..100 {
                std::hint::black_box(a.add(a));
            }
        });
        let e1 = m.energy(&r, &cfg, 1.0);
        let e8 = m.energy(&r, &cfg, 8.0);
        assert!(e8.core_j > 4.0 * e1.core_j);
        assert_eq!(e8.dram_j, e1.dram_j);
    }
}
