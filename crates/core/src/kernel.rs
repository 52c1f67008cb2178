//! The kernel abstraction and its metadata taxonomy.
//!
//! Every Swan kernel carries the paper's classification: source library
//! (Table 2), element precision (for `VRE`, Equation 1), the
//! auto-vectorization verdict and its legality/cost-model obstacles
//! (§5.2, Table 4), and the common computation patterns it exhibits
//! (§6).

use std::fmt;
use swan_simd::Width;

/// The twelve source libraries of the Swan suite (paper Table 2).
///
/// The paper's figures abbreviate libjpeg-turbo as both `LJ` and `LT`;
/// this crate uses `LJ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Library {
    LJ,
    LP,
    LW,
    SK,
    WA,
    PF,
    ZL,
    BS,
    OR,
    LO,
    LV,
    XP,
}

/// Static facts about one library (Table 2 row).
#[derive(Clone, Copy, Debug)]
pub struct LibraryInfo {
    /// Two-letter symbol used in the figures.
    pub symbol: &'static str,
    /// Library name.
    pub name: &'static str,
    /// Application domain.
    pub domain: &'static str,
    /// Usage across the four applications:
    /// (Chromium, Android, WebRTC, PDFium).
    pub used_by: (bool, bool, bool, bool),
    /// Maximum share of Chrome execution time (%), `None` where the
    /// paper reports none.
    pub chromium_max_pct: Option<f64>,
    /// Average share of Chrome execution time (%).
    pub chromium_avg_pct: Option<f64>,
    /// Whether this library is GPU-offloadable in practice (the first
    /// nine are not, §8).
    pub gpu_offloaded: bool,
}

impl Library {
    /// All libraries in Table 2 / figure order.
    pub const ALL: [Library; 12] = [
        Library::LJ,
        Library::LP,
        Library::LW,
        Library::SK,
        Library::WA,
        Library::PF,
        Library::ZL,
        Library::BS,
        Library::OR,
        Library::LO,
        Library::LV,
        Library::XP,
    ];

    /// Table 2 metadata for this library.
    pub fn info(self) -> LibraryInfo {
        use Library::*;
        match self {
            LJ => LibraryInfo {
                symbol: "LJ",
                name: "libjpeg-turbo",
                domain: "Image Processing",
                used_by: (true, false, false, true),
                chromium_max_pct: Some(6.8),
                chromium_avg_pct: Some(2.4),
                gpu_offloaded: false,
            },
            LP => LibraryInfo {
                symbol: "LP",
                name: "libpng",
                domain: "Image Processing",
                used_by: (true, false, false, true),
                chromium_max_pct: Some(0.8),
                chromium_avg_pct: Some(0.3),
                gpu_offloaded: false,
            },
            LW => LibraryInfo {
                symbol: "LW",
                name: "libwebp",
                domain: "Image Processing",
                used_by: (true, false, false, true),
                chromium_max_pct: Some(7.3),
                chromium_avg_pct: Some(1.7),
                gpu_offloaded: false,
            },
            SK => LibraryInfo {
                symbol: "SK",
                name: "Skia",
                domain: "Graphics",
                used_by: (true, true, false, true),
                chromium_max_pct: Some(8.5),
                chromium_avg_pct: Some(4.6),
                gpu_offloaded: false,
            },
            WA => LibraryInfo {
                symbol: "WA",
                name: "WebAudio",
                domain: "Audio Processing",
                used_by: (true, false, true, false),
                chromium_max_pct: Some(16.3),
                chromium_avg_pct: Some(2.5),
                gpu_offloaded: false,
            },
            PF => LibraryInfo {
                symbol: "PF",
                name: "PFFFT",
                domain: "Audio Processing",
                used_by: (true, true, true, false),
                chromium_max_pct: Some(5.6),
                chromium_avg_pct: Some(1.3),
                gpu_offloaded: false,
            },
            ZL => LibraryInfo {
                symbol: "ZL",
                name: "zlib",
                domain: "Data Compression",
                used_by: (true, true, false, true),
                chromium_max_pct: Some(0.4),
                chromium_avg_pct: Some(0.2),
                gpu_offloaded: false,
            },
            BS => LibraryInfo {
                symbol: "BS",
                name: "boringssl",
                domain: "Cryptography",
                used_by: (true, true, true, false),
                chromium_max_pct: Some(0.9),
                chromium_avg_pct: Some(0.6),
                gpu_offloaded: false,
            },
            OR => LibraryInfo {
                symbol: "OR",
                name: "Opt. Routines",
                domain: "String Utilities",
                used_by: (true, true, true, true),
                chromium_max_pct: Some(9.6),
                chromium_avg_pct: Some(1.2),
                gpu_offloaded: false,
            },
            LO => LibraryInfo {
                symbol: "LO",
                name: "libopus",
                domain: "Audio Processing",
                used_by: (true, true, true, false),
                chromium_max_pct: None,
                chromium_avg_pct: None,
                gpu_offloaded: false,
            },
            LV => LibraryInfo {
                symbol: "LV",
                name: "libvpx",
                domain: "Video Processing",
                used_by: (true, true, true, false),
                chromium_max_pct: None,
                chromium_avg_pct: None,
                gpu_offloaded: false,
            },
            XP => LibraryInfo {
                symbol: "XP",
                name: "XNNPACK",
                domain: "Machine Learning",
                used_by: (true, true, false, false),
                chromium_max_pct: None,
                chromium_avg_pct: None,
                gpu_offloaded: true,
            },
        }
    }

    /// Parse a symbol (accepts the paper's `LT` alias for `LJ`).
    pub fn from_symbol(s: &str) -> Option<Library> {
        let up = s.to_ascii_uppercase();
        if up == "LT" {
            return Some(Library::LJ);
        }
        Library::ALL.into_iter().find(|l| l.info().symbol == up)
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.info().symbol)
    }
}

/// Which implementation of a kernel to run (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Impl {
    /// Scalar reference, auto-vectorization disabled.
    Scalar,
    /// Compiler auto-vectorized build of the scalar code.
    Auto,
    /// Explicit vectorization with (fake-)Neon intrinsics.
    Neon,
}

impl Impl {
    /// All implementations, in campaign order.
    pub const ALL: [Impl; 3] = [Impl::Scalar, Impl::Auto, Impl::Neon];

    /// Stable name used in scenario ids and golden baselines.
    pub fn name(self) -> &'static str {
        match self {
            Impl::Scalar => "Scalar",
            Impl::Auto => "Auto",
            Impl::Neon => "Neon",
        }
    }

    /// Parse a stable name (case-insensitive).
    pub fn parse(s: &str) -> Option<Impl> {
        Impl::ALL
            .into_iter()
            .find(|i| i.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Impl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why the compiler failed (or was charged extra) on a kernel (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AutoObstacle {
    /// Uncountable loop (`break`, unknown `while` condition).
    UncountableLoop,
    /// Indirect memory access (`A[B[i]]` look-up tables) defeats
    /// aliasing checks.
    IndirectMemoryAccess,
    /// Complex PHI-node data dependency across iterations.
    LoopDependency,
    /// Other legality obstacles (FP reassociation, calls, switches,
    /// unsafe memory operations).
    OtherLegality,
    /// Inaccurate cost model rejected a legal vectorization.
    CostModel,
}

/// How the Auto build compares with Neon for a kernel the compiler did
/// vectorize (Table 4, right column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VsNeon {
    /// Auto roughly matches Neon.
    Similar,
    /// Auto trails Neon.
    Worse,
    /// Auto marginally beats Neon (higher interleaving).
    Better,
}

/// Auto-vectorization outcome for a kernel (Table 4, left column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AutoOutcome {
    /// Compiler failed; Auto == Scalar.
    SameAsScalar,
    /// Compiler vectorized unprofitably; Auto < Scalar.
    SlowerThanScalar,
    /// Compiler vectorized profitably.
    Vectorized(VsNeon),
}

/// The paper's five common computation patterns (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// §6.1 — associative+commutative reduction to a scalar.
    Reduction,
    /// §6.1 — sequential reduction requiring loop distribution
    /// (Adler-32 style) before it parallelizes.
    SequentialReduction,
    /// §6.2 — look-up-table gather (`A[B[i]]`).
    RandomMemoryAccess,
    /// §6.3 — non-unit-stride loads/stores or ZIP/UZP shuffles.
    StridedMemoryAccess,
    /// §6.4 — in-register matrix transposition.
    MatrixTransposition,
    /// §6.5 — portable vector API style (load/op/store per operation).
    VectorApi,
}

/// Static description of one kernel.
#[derive(Clone, Debug)]
pub struct KernelMeta {
    /// Kernel name, unique within its library (e.g. `"rgb_to_ycbcr"`).
    pub name: &'static str,
    /// Source library.
    pub library: Library,
    /// Element precision in bits of the dominant data type.
    pub precision_bits: u32,
    /// Whether the dominant data type is floating point.
    pub is_float: bool,
    /// Auto-vectorization outcome (the paper's compiler, Table 4).
    pub auto: AutoOutcome,
    /// Which implementation's 128-bit stream this reproduction's Auto
    /// build runs: `Some(Impl::Scalar)` or `Some(Impl::Neon)` when
    /// `Runnable::run` sends [`Impl::Auto`] into exactly that code
    /// path (so the two streams are byte-identical and a campaign
    /// measures them once), `None` when Auto has code of its own.
    /// Declared by the kernel's `Runnable`, not derived from
    /// [`KernelMeta::auto`].
    pub auto_stream: Option<Impl>,
    /// Legality/cost obstacles observed on the scalar code (§5.2);
    /// empty when the compiler vectorizes cleanly.
    pub obstacles: &'static [AutoObstacle],
    /// Computation patterns exhibited (§6).
    pub patterns: &'static [Pattern],
    /// Relative output tolerance for verification (0.0 = bit exact).
    pub tolerance: f64,
    /// Excluded from the headline evaluation (the DES case study).
    pub excluded_from_eval: bool,
}

impl KernelMeta {
    /// Vector Register Elements at a given width (Equation 1).
    pub fn vre(&self, w: Width) -> u32 {
        (w.bits() as u32) / self.precision_bits
    }

    /// Fully qualified `LIB.kernel` identifier.
    pub fn id(&self) -> String {
        format!("{}.{}", self.library, self.name)
    }
}

/// Input-size scale relative to the paper's inputs (HD frames, 1 s of
/// 44.1 kHz audio, 128 KB buffers, §4.1).
///
/// Timing simulation of full-size inputs is unnecessary for the
/// analyses (which depend on working-set-to-cache ratios and
/// instruction mix); the default simulation scale keeps traces small
/// while preserving those ratios' regimes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Full paper-size inputs.
    pub fn paper() -> Scale {
        Scale(1.0)
    }

    /// Default simulation scale for report generation: 0.4 keeps the
    /// image working sets above the 2 MiB LLC (preserving the paper's
    /// cache-pressure regime) while keeping traces tractable.
    pub fn sim() -> Scale {
        Scale(0.4)
    }

    /// A fast scale for smoke-testing the full report pipeline.
    pub fn quick() -> Scale {
        Scale(1.0 / 24.0)
    }

    /// A quick-test scale for unit tests.
    pub fn test() -> Scale {
        Scale(1.0 / 96.0)
    }

    /// Scale a linear dimension, keeping it at least `min` and rounded
    /// up to a multiple of `align`.
    pub fn dim(&self, full: usize, min: usize, align: usize) -> usize {
        let v = ((full as f64) * self.0).round() as usize;
        let v = v.max(min).max(align);
        v.div_ceil(align) * align
    }

    /// Scale a byte/element count (minimum 1 KiB-ish, 128-aligned).
    pub fn len(&self, full: usize) -> usize {
        self.dim(full, 1024, 128)
    }
}

/// Parses a command-line scale. Only a finite factor above zero is a
/// scale: infinity overflows [`Scale::dim`], and NaN, zero or a
/// negative factor would silently run every kernel at its floor size.
impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(raw: &str) -> Result<Scale, String> {
        let v: f64 = raw.parse().map_err(|_| "not a number".to_string())?;
        if v.is_finite() && v > 0.0 {
            Ok(Scale(v))
        } else {
            Err("the scale must be a finite number greater than 0".to_string())
        }
    }
}

/// A kernel with pre-generated inputs, ready to run under a tracer.
///
/// Input generation happens in [`Kernel::instantiate`], outside any
/// trace session, so the measured instruction stream contains only the
/// kernel itself.
pub trait Runnable {
    /// Execute one full invocation of the requested implementation.
    /// `Width` selects the fake-Neon register width for [`Impl::Neon`]
    /// (Auto always vectorizes at 128 bits, the compiler's target).
    fn run(&mut self, imp: Impl, w: Width);

    /// A flattened numeric digest of the outputs of the last `run`,
    /// used to check Scalar and Neon agree (§4.1's correctness check).
    fn output(&self) -> Vec<f64>;

    /// Number of useful arithmetic operations per invocation (used by
    /// the Figure 6 op-count axis); 0 when not meaningful.
    fn work_ops(&self) -> u64 {
        0
    }
}

/// A Swan benchmark kernel.
pub trait Kernel: Send + Sync {
    /// Static metadata.
    fn meta(&self) -> KernelMeta;

    /// Generate inputs at the given scale and seed and return a
    /// runnable instance.
    fn instantiate(&self, scale: Scale, seed: u64) -> Box<dyn Runnable>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_table2_roundtrip() {
        assert_eq!(Library::ALL.len(), 12);
        for lib in Library::ALL {
            let info = lib.info();
            assert_eq!(Library::from_symbol(info.symbol), Some(lib));
        }
        // The paper's LT alias maps to libjpeg-turbo.
        assert_eq!(Library::from_symbol("LT"), Some(Library::LJ));
        assert_eq!(Library::from_symbol("lt"), Some(Library::LJ));
        assert_eq!(Library::from_symbol("??"), None);
    }

    #[test]
    fn chromium_shares_match_table2() {
        assert_eq!(Library::WA.info().chromium_max_pct, Some(16.3));
        assert_eq!(Library::SK.info().chromium_avg_pct, Some(4.6));
        assert_eq!(Library::LO.info().chromium_max_pct, None);
    }

    #[test]
    fn vre_equation() {
        let meta = KernelMeta {
            name: "k",
            library: Library::LJ,
            precision_bits: 8,
            is_float: false,
            auto: AutoOutcome::SameAsScalar,
            auto_stream: Some(Impl::Scalar),
            obstacles: &[],
            patterns: &[],
            tolerance: 0.0,
            excluded_from_eval: false,
        };
        assert_eq!(meta.vre(Width::W128), 16);
        assert_eq!(meta.vre(Width::W1024), 128);
        assert_eq!(meta.id(), "LJ.k");
    }

    #[test]
    fn scale_respects_min_and_alignment() {
        let s = Scale::test();
        assert_eq!(s.dim(720, 16, 8) % 8, 0);
        assert!(s.dim(720, 16, 8) >= 16);
        assert_eq!(Scale::paper().dim(720, 16, 8), 720);
        assert!(s.len(128 << 10) >= 1024);
        assert_eq!(s.len(128 << 10) % 128, 0);
    }

    #[test]
    fn scale_parses_only_finite_positive_factors() {
        assert_eq!("0.25".parse::<Scale>(), Ok(Scale(0.25)));
        assert_eq!("1e-3".parse::<Scale>(), Ok(Scale(1e-3)));
        for bad in ["inf", "-inf", "nan", "NaN", "0", "-0", "-1", "x", ""] {
            assert!(bad.parse::<Scale>().is_err(), "{bad} accepted");
        }
    }
}
