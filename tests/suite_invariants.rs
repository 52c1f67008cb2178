//! Cross-crate integration tests: every kernel verifies functionally
//! across the full width range, and basic suite-level invariants hold.

use swan::prelude::*;

#[test]
fn every_kernel_verifies_at_two_seeds() {
    for kernel in swan::suite() {
        for seed in [1u64, 987654321] {
            verify_kernel(kernel.as_ref(), Scale::test(), seed)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.meta().id()));
        }
    }
}

#[test]
fn neon_reduces_instructions_for_every_kernel() {
    let prime = CoreConfig::prime();
    for kernel in swan::suite() {
        let s = measure(
            kernel.as_ref(),
            Impl::Scalar,
            Width::W128,
            &prime,
            Scale::test(),
            5,
        );
        let v = measure(
            kernel.as_ref(),
            Impl::Neon,
            Width::W128,
            &prime,
            Scale::test(),
            5,
        );
        let red = s.trace.total() as f64 / v.trace.total() as f64;
        assert!(
            red > 1.0,
            "{}: instruction reduction {red:.2} must exceed 1",
            kernel.meta().id()
        );
        // Vector ISA can encode at most VRE-ish more work per instr;
        // crypto instructions encode whole rounds (AESE = SubBytes +
        // ShiftRows + AddRoundKey of a block, SHA256H = four rounds),
        // so they get a wider but still bounded allowance.
        let has_crypto = v.trace.class_count(swan_simd::Class::VCrypto) > 0;
        let vre = kernel.meta().vre(Width::W128) as f64;
        let bound = if has_crypto { 80.0 } else { 4.0 * vre.max(4.0) };
        assert!(
            red < bound,
            "{}: reduction {red:.2} implausibly high",
            kernel.meta().id()
        );
    }
}

#[test]
fn neon_is_faster_than_scalar_for_nearly_every_kernel() {
    let prime = CoreConfig::prime();
    let mut slower = Vec::new();
    for kernel in swan::suite() {
        let s = measure(
            kernel.as_ref(),
            Impl::Scalar,
            Width::W128,
            &prime,
            Scale::test(),
            5,
        );
        let v = measure(
            kernel.as_ref(),
            Impl::Neon,
            Width::W128,
            &prime,
            Scale::test(),
            5,
        );
        if v.seconds() >= s.seconds() {
            slower.push(kernel.meta().id());
        }
    }
    // The paper's slowest Neon kernels still win; allow at most one
    // borderline case at the tiny test scale.
    assert!(
        slower.len() <= 1,
        "kernels where Neon lost to scalar: {slower:?}"
    );
}

#[test]
fn ipc_never_exceeds_commit_width() {
    let prime = CoreConfig::prime();
    for kernel in swan::suite().iter().take(12) {
        for imp in [Impl::Scalar, Impl::Neon] {
            let m = measure(kernel.as_ref(), imp, Width::W128, &prime, Scale::test(), 3);
            assert!(
                m.sim.ipc() <= prime.commit_width as f64 + 1e-9,
                "{}: IPC {}",
                kernel.meta().id(),
                m.sim.ipc()
            );
        }
    }
}

#[test]
fn silver_core_is_slower_than_prime() {
    let prime = CoreConfig::prime();
    let silver = CoreConfig::silver();
    for kernel in swan::suite().iter().take(6) {
        let p = measure(
            kernel.as_ref(),
            Impl::Neon,
            Width::W128,
            &prime,
            Scale::test(),
            3,
        );
        let s = measure(
            kernel.as_ref(),
            Impl::Neon,
            Width::W128,
            &silver,
            Scale::test(),
            3,
        );
        assert!(
            s.seconds() > p.seconds(),
            "{}: silver {} vs prime {}",
            kernel.meta().id(),
            s.seconds(),
            p.seconds()
        );
    }
}

#[test]
fn representatives_exist_and_cover_all_libraries() {
    let kernels = swan::suite();
    let mut libs = std::collections::HashSet::new();
    for (lib, name) in swan::core::perf::REPRESENTATIVES {
        let k = swan::core::find(&kernels, lib, name);
        libs.insert(k.meta().library);
    }
    assert_eq!(libs.len(), 12);
}

#[test]
fn perf_probe_times_every_phase() {
    let kernels = swan::suite();
    let rep = swan::core::probe(&kernels, Scale::test(), 42, None);
    assert_eq!(rep.kernels, 12);
    assert_eq!(rep.cores, 3);
    assert!(rep.instrs > 0);
    assert!(rep.instantiate_ns > 0 && rep.execute_ns > 0);
    assert!(rep.trace_ns > 0 && rep.record_ns > 0 && rep.reexecute_ns > 0);
    assert!(rep.decode_ns > 0 && rep.warm_ns > 0 && rep.timed_ns > 0);
    assert!(rep.instrs_per_sec() > 0.0);
    let text = rep.render();
    for row in [
        "instantiate",
        "execute (untraced)",
        "trace (null sink)",
        "encode (record-trace)",
        "re-execute (timed sink)",
        "decode-only replay",
        "warm batch",
        "timed batch",
    ] {
        assert!(text.contains(row), "{row} row missing: {text}");
    }
    assert!(text.contains("instrs/sec"), "headline missing: {text}");
}
