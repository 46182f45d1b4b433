//! Cache-blocked, register-tiled, multi-threaded single-precision GEMM.
//!
//! `C += op(A) · op(B)` in the classic three-level blocking scheme
//! (BLIS/GotoBLAS): the depth dimension is split into [`KC`] panels, B
//! panels are packed into contiguous `NR`-column strips and A blocks into
//! `MR`-row strips, and an `MR x NR` microkernel accumulates a C tile in
//! registers across the whole depth panel with a dense inner loop — no
//! per-element zero-skip branch, one C load/store per tile per depth panel
//! instead of one per scalar multiply.
//!
//! The microkernel is picked once at runtime: an AVX-512 14x16 kernel when
//! the CPU reports `avx512f` (one zmm B load plus fourteen
//! embedded-broadcast FMAs per depth step), else an AVX2+FMA 6x16 kernel
//! (two 8-lane FMAs per row per depth step), otherwise a portable 4x8
//! kernel that LLVM auto-vectorises for the baseline target. Transposed
//! operands are handled by the packing routines reading through
//! `(row, col)` strides, so backward passes (`dA = dC·Bᵀ`, `dB = Aᵀ·dC`)
//! never materialise a transposed copy.
//!
//! The same blocked loop runs the convolution forward as an implicit GEMM
//! (`conv2d_nchw`): its A strips are packed straight from the NCHW input,
//! tap by tap, and each accumulator tile is added straight into the NCHW
//! output. The microkernel sees exactly the packed values an explicit
//! im2col matrix would give it, in the same depth order, so the result is
//! bit-identical to im2col followed by [`sgemm`] and an NCHW scatter.
//!
//! Large products are sharded across [`super::pool`]: disjoint row (or
//! column) stripes of C go to different threads, each running the full
//! blocked loop on its stripe. Packing buffers are reused per thread via
//! [`super::scratch`].

use std::sync::OnceLock;

use super::config::{configured_threads, KC, MC, NC, PAR_FLOP_THRESHOLD};
use super::pool::parallel_for;
use super::scratch;

/// Whether an operand participates as stored (`N`) or transposed (`T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored (row-major `rows x cols`).
    N,
    /// Use the transpose of the stored matrix.
    T,
}

/// Row-major view of `op(X)` as `rows x cols` over stored data: element
/// `(r, c)` lives at `r*rs + c*cs`.
#[derive(Clone, Copy)]
struct View {
    rs: usize,
    cs: usize,
}

impl View {
    /// View of `op(X)` with logical shape `rows x cols`; when `trans` is
    /// `T` the storage holds `cols x rows` row-major.
    fn new(trans: Trans, rows: usize, cols: usize) -> View {
        match trans {
            Trans::N => View { rs: cols, cs: 1 },
            Trans::T => View { rs: 1, cs: rows },
        }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> usize {
        r * self.rs + c * self.cs
    }
}

/// Upper bound on `MR` across microkernels.
const MR_MAX: usize = 14;
/// Upper bound on `MR * NR` across microkernels (accumulator staging).
const ACC_MAX: usize = MR_MAX * 16;

/// One register microkernel: computes `acc[mr][nr] = Astrip · Bstrip` over
/// a packed depth panel of `kc` (A strip interleaved `kc x mr`, B strip
/// `kc x nr`, acc row-major with stride `nr`).
///
/// Safety contract: `astrip` holds `kc*mr` readable floats, `bstrip`
/// `kc*nr`, `acc` `mr*nr` writable floats, and the CPU supports the
/// kernel's ISA.
#[derive(Clone, Copy)]
struct Micro {
    name: &'static str,
    mr: usize,
    nr: usize,
    kernel: unsafe fn(kc: usize, astrip: *const f32, bstrip: *const f32, acc: *mut f32),
}

/// Portable 4x8 kernel; fixed bounds keep the accumulator tile in
/// registers and let LLVM vectorise for whatever the build target offers.
// SAFETY: unsafe fn — callers uphold the `Micro::kernel` contract (packed
// strip and accumulator sizes); no ISA requirement beyond the build target.
unsafe fn micro_portable_4x8(kc: usize, astrip: *const f32, bstrip: *const f32, acc: *mut f32) { // analysis: hot
    const MR: usize = 4;
    const NR: usize = 8;
    let mut tile = [[0.0f32; NR]; MR];
    for p in 0..kc {
        // SAFETY: the contract guarantees kc strips of MR / NR floats each.
        let a = unsafe { std::slice::from_raw_parts(astrip.add(p * MR), MR) };
        let b = unsafe { std::slice::from_raw_parts(bstrip.add(p * NR), NR) };
        for (r, row) in tile.iter_mut().enumerate() {
            let av = a[r];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot += av * b[j];
            }
        }
    }
    for (r, row) in tile.iter().enumerate() {
        // SAFETY: acc holds MR*NR writable floats per the kernel contract.
        unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), acc.add(r * NR), NR) };
    }
}

/// AVX2+FMA 6x16 kernel: 12 ymm accumulators, two B loads and six
/// broadcast-FMAs per depth step (~2 FMA issues per cycle on one core).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
// SAFETY: unsafe fn — `Micro::kernel` contract plus a CPU with avx2+fma;
// detect_micro only selects this kernel after checking the feature bits.
unsafe fn micro_avx2_6x16(kc: usize, astrip: *const f32, bstrip: *const f32, acc: *mut f32) { // analysis: hot
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    const MR: usize = 6;
    // SAFETY: every load/store indexes below kc*16 (B), kc*MR (A) or 6*16
    // (acc), all guaranteed by the kernel contract; ISA is checked above.
    unsafe {
        let mut tile = [[_mm256_setzero_ps(); 2]; MR];
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bstrip.add(p * 16));
            let b1 = _mm256_loadu_ps(bstrip.add(p * 16 + 8));
            for (r, row) in tile.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*astrip.add(p * MR + r));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        for (r, row) in tile.iter().enumerate() {
            _mm256_storeu_ps(acc.add(r * 16), row[0]);
            _mm256_storeu_ps(acc.add(r * 16 + 8), row[1]);
        }
    }
}

/// AVX-512 14x16 kernel: fourteen zmm accumulators fed by one B load per
/// depth step; each broadcast folds into its FMA as an embedded-broadcast
/// memory operand, so the inner loop issues ~15 instructions for fourteen
/// 512-bit FMAs. The tall 14-row tile keeps `nr` at 16 columns, matching
/// the AVX2 kernel's padding waste on narrow conv GEMMs while doubling
/// per-instruction width on the tall im2col products batching produces.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: unsafe fn — `Micro::kernel` contract plus a CPU with avx512f;
// detect_micro only selects this kernel after checking the feature bit.
unsafe fn micro_avx512_14x16(kc: usize, astrip: *const f32, bstrip: *const f32, acc: *mut f32) { // analysis: hot
    use std::arch::x86_64::*;
    const MR: usize = 14;
    // SAFETY: every load/store indexes below kc*16 (B), kc*MR (A) or MR*16
    // (acc), all guaranteed by the kernel contract; ISA is checked above.
    unsafe {
        let mut tile = [_mm512_setzero_ps(); MR];
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(bstrip.add(p * 16));
            for (r, slot) in tile.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*astrip.add(p * MR + r));
                *slot = _mm512_fmadd_ps(av, b0, *slot);
            }
        }
        for (r, slot) in tile.iter().enumerate() {
            _mm512_storeu_ps(acc.add(r * 16), *slot);
        }
    }
}

fn detect_micro() -> Micro {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Micro { name: "avx512f_14x16", mr: 14, nr: 16, kernel: micro_avx512_14x16 };
        }
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Micro { name: "avx2_fma_6x16", mr: 6, nr: 16, kernel: micro_avx2_6x16 };
        }
    }
    Micro { name: "portable_4x8", mr: 4, nr: 8, kernel: micro_portable_4x8 }
}

fn active_micro() -> Micro {
    static MICRO: OnceLock<Micro> = OnceLock::new();
    *MICRO.get_or_init(detect_micro)
}

/// `(name, mr, nr)` of the microkernel selected for this CPU (recorded in
/// bench artifacts by [`super::KernelConfig`]).
pub fn microkernel_info() -> (&'static str, usize, usize) {
    let micro = active_micro();
    (micro.name, micro.mr, micro.nr)
}

/// Reference implementation: the seed repo's scalar `ikj` GEMM with the
/// per-element zero-skip branch, kept as the parity baseline for tests and
/// the naive side of `kernel_bench`.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Geometry of a 2-D convolution over an NCHW input, read as the implicit
/// GEMM `out[N*ho*wo, O] = cols[N*ho*wo, C*kh*kw] · Wᵀ`. GEMM row `i` is
/// output position `i % (ho*wo)` of sample `i / (ho*wo)`; depth index `q`
/// walks `(ci, ky, kx)` in the weight's storage order, so the `[O, C, kh,
/// kw]` weight is the `Trans::T` B operand exactly as stored.
#[derive(Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    pub(crate) ho: usize,
    pub(crate) wo: usize,
}

/// The A operand of a blocked product.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// A stored matrix, read through a stride view.
    Matrix(&'a [f32], View),
    /// The im2col matrix of an NCHW input, read from the input itself.
    Im2col(&'a [f32], ConvGeom),
}

impl Lhs<'_> {
    /// Pack the `mc x kc` block starting at `(i0, p0)` into `mr`-row
    /// strips: strip `ir` holds `panel[(ir*kc + p)*mr + r]`, zero-padded
    /// past `mc`.
    fn pack(&self, panel: &mut [f32], mr: usize, i0: usize, mc: usize, p0: usize, kc: usize) {
        match *self {
            Lhs::Matrix(a, view) => pack_a(panel, mr, a, view, i0, mc, p0, kc),
            Lhs::Im2col(x, geom) => pack_a_im2col(panel, mr, x, &geom, i0, mc, p0, kc),
        }
    }
}

/// [`Lhs::pack`] for a stored matrix.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    panel: &mut [f32],
    mr: usize,
    a: &[f32],
    view: View,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    let strips = mc.div_ceil(mr);
    debug_assert!(panel.len() >= strips * kc * mr);
    for ir in 0..strips {
        let row0 = ir * mr;
        let full = (mc - row0).min(mr);
        let strip = &mut panel[ir * kc * mr..(ir * kc + kc) * mr];
        for p in 0..kc {
            let dst = &mut strip[p * mr..p * mr + mr];
            let base = view.at(i0 + row0, p0 + p);
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < full { a[base + r * view.rs] } else { 0.0 };
            }
        }
    }
}

/// [`Lhs::pack`] for the im2col matrix of the NCHW input `x`, read from
/// `x` itself. A strip's rows split into runs of consecutive positions on
/// one output row. Per kernel tap `(ky, kx)`, each run reads a span of one
/// input row at the conv stride and falls in the zero padding outside it;
/// that span is worked out once and reused for every input channel `ci`
/// (depth index `ci*kh*kw + ky*kw + kx`), so the per-channel work is one
/// copy per run, contiguous at stride 1.
#[allow(clippy::too_many_arguments)]
fn pack_a_im2col(
    panel: &mut [f32],
    mr: usize,
    x: &[f32],
    g: &ConvGeom,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    /// Strip rows `r0..r0 + len`: consecutive positions on one output
    /// row of the sample at offset `sample` in `x`, the first of which
    /// has its top-left tap at input `(iy, ix)` (negative inside the
    /// padding). At the current tap, row `r0 + t` reads
    /// `x[src + ci*h*w + (t - lo)*stride]` for `t` in `lo..hi` and is
    /// zero elsewhere.
    #[derive(Clone, Copy, Default)]
    struct Run {
        r0: usize,
        len: usize,
        sample: usize,
        iy: isize,
        ix: isize,
        lo: usize,
        hi: usize,
        src: usize,
    }
    /// The count of taps `t >= 0` with `t*s < n` (0 when `n <= 0`).
    fn taps_below(n: isize, s: usize) -> usize {
        (n.max(0) as usize).div_ceil(s)
    }
    let plane = g.ho * g.wo;
    let (hw, khw, s) = (g.h * g.w, g.kh * g.kw, g.stride);
    let strips = mc.div_ceil(mr);
    debug_assert!(mr <= MR_MAX && panel.len() >= strips * kc * mr);
    let mut runs = [Run::default(); MR_MAX];
    for ir in 0..strips {
        let row0 = ir * mr;
        let full = (mc - row0).min(mr);
        let mut nruns = 0;
        let mut r0 = 0;
        while r0 < full {
            let i = i0 + row0 + r0;
            let (oy, ox) = (i % plane / g.wo, i % g.wo);
            let len = (full - r0).min(g.wo - ox);
            runs[nruns] = Run {
                r0,
                len,
                sample: i / plane * g.c * hw,
                iy: (oy * s) as isize - g.pad as isize,
                ix: (ox * s) as isize - g.pad as isize,
                ..Run::default()
            };
            nruns += 1;
            r0 += len;
        }
        let runs = &mut runs[..nruns];
        let strip = &mut panel[ir * kc * mr..(ir * kc + kc) * mr];
        for tap in 0..khw {
            let (ky, kx) = ((tap / g.kw) as isize, (tap % g.kw) as isize);
            for run in runs.iter_mut() {
                let (iy, ix) = (run.iy + ky, run.ix + kx);
                (run.lo, run.hi) = (0, 0);
                if iy >= 0 && iy < g.h as isize {
                    // Taps t in lo..hi land inside the row: 0 <= ix + t*s < w.
                    run.lo = taps_below(-ix, s).min(run.len);
                    run.hi = taps_below(g.w as isize - ix, s).clamp(run.lo, run.len);
                }
                let first = run.sample as isize + iy * g.w as isize + ix + (run.lo * s) as isize;
                run.src = if run.lo < run.hi { first as usize } else { 0 };
            }
            let padding_only = runs.iter().all(|run| run.lo == run.hi);
            // Channels whose depth index ci*khw + tap lies in p0..p0 + kc.
            let ci_lo = (p0 + khw - 1 - tap) / khw;
            let ci_hi = (p0 + kc + khw - 1 - tap) / khw;
            for ci in ci_lo..ci_hi {
                let p = ci * khw + tap - p0;
                let dst = &mut strip[p * mr..p * mr + mr];
                if padding_only {
                    dst.fill(0.0);
                    continue;
                }
                for run in runs.iter() {
                    let seg = &mut dst[run.r0..run.r0 + run.len];
                    let src = &x[run.src + ci * hw..];
                    if run.len < 8 {
                        // Short runs (small latents): per-element writes
                        // beat the fill and copy calls.
                        for (t, d) in seg.iter_mut().enumerate() {
                            *d = if (run.lo..run.hi).contains(&t) {
                                src[(t - run.lo) * s]
                            } else {
                                0.0
                            };
                        }
                        continue;
                    }
                    seg[..run.lo].fill(0.0);
                    let taps = &mut seg[run.lo..run.hi];
                    if s == 1 {
                        taps.copy_from_slice(&src[..taps.len()]);
                    } else {
                        for (d, &v) in taps.iter_mut().zip(src.iter().step_by(s)) {
                            *d = v;
                        }
                    }
                    seg[run.hi..].fill(0.0);
                }
                dst[full..].fill(0.0);
            }
        }
    }
}

/// Pack the `kc x nc` block of `op(B)` starting at `(p0, j0)` into
/// `nr`-column strips: strip `jr` holds `panel[(jr*kc + p)*nr + j]`,
/// zero-padded past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    panel: &mut [f32],
    nr: usize,
    b: &[f32],
    view: View,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let strips = nc.div_ceil(nr);
    debug_assert!(panel.len() >= strips * kc * nr);
    for jr in 0..strips {
        let col0 = jr * nr;
        let full = (nc - col0).min(nr);
        let strip = &mut panel[jr * kc * nr..(jr * kc + kc) * nr];
        if view.rs == 1 {
            // Columns are contiguous in storage (a transposed operand such
            // as a conv weight): copy each one down its strip lane.
            for j in 0..nr {
                let lane = strip[j..].iter_mut().step_by(nr);
                if j < full {
                    let base = view.at(p0, j0 + col0 + j);
                    for (d, &v) in lane.zip(&b[base..base + kc]) {
                        *d = v;
                    }
                } else {
                    lane.for_each(|d| *d = 0.0);
                }
            }
            continue;
        }
        for p in 0..kc {
            let dst = &mut strip[p * nr..p * nr + nr];
            let base = view.at(p0 + p, j0 + col0);
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if j < full { b[base + j * view.cs] } else { 0.0 };
            }
        }
    }
}

/// Where C lives: the memory layout the accumulator tiles are added into.
#[derive(Clone, Copy)]
enum Dst {
    /// Row-major with leading dimension `ldc`.
    RowMajor { ldc: usize },
    /// NCHW `[N, channels, plane]`: GEMM row `i` is position `i % plane` of
    /// sample `i / plane`, GEMM column `j` is channel `j`.
    Nchw { plane: usize, channels: usize },
}

impl Dst {
    /// Whether a C slice of `len` floats holds every element of the
    /// `m x n` product in this layout.
    fn fits(self, m: usize, n: usize, len: usize) -> bool {
        match self {
            Dst::RowMajor { ldc } => n <= ldc && m * ldc <= len,
            Dst::Nchw { plane, channels } => {
                n <= channels && m.is_multiple_of(plane) && m / plane * channels * plane <= len
            }
        }
    }

    /// Add the `rows x cols` accumulator tile `acc` (row stride `nr`) into
    /// C at GEMM position `(i0, j0)`.
    ///
    /// # Safety
    ///
    /// `c` must be valid for reads and writes of every element of C that
    /// rows `i0..i0 + rows` and columns `j0..j0 + cols` map to in this
    /// layout, and no other thread may access those elements meanwhile.
    #[allow(clippy::too_many_arguments)]
    // SAFETY: unsafe fn — callers uphold the `# Safety` contract above;
    // `gemm_stripe` passes only tiles inside its own stripe of C.
    unsafe fn add_tile(
        self,
        c: *mut f32,
        acc: &[f32],
        nr: usize,
        i0: usize,
        rows: usize,
        j0: usize,
        cols: usize,
    ) {
        match self {
            Dst::RowMajor { ldc } => {
                for r in 0..rows {
                    let at = (i0 + r) * ldc + j0;
                    // SAFETY: row `i0 + r`, columns `j0..j0 + cols` are tile
                    // elements, covered by this fn's contract.
                    let dst = unsafe { std::slice::from_raw_parts_mut(c.add(at), cols) };
                    for (d, &v) in dst.iter_mut().zip(&acc[r * nr..r * nr + cols]) {
                        *d += v;
                    }
                }
            }
            Dst::Nchw { plane, channels } => {
                // Rows of one sample are consecutive positions, contiguous
                // in every channel plane: add each channel's run at once.
                let mut r = 0;
                while r < rows {
                    let (sample, pos) = ((i0 + r) / plane, (i0 + r) % plane);
                    let run = (rows - r).min(plane - pos);
                    for j in 0..cols {
                        let at = (sample * channels + j0 + j) * plane + pos;
                        // SAFETY: `at..at + run` are the tile's rows in one
                        // channel plane, covered by this fn's contract.
                        let dst = unsafe { std::slice::from_raw_parts_mut(c.add(at), run) };
                        for (t, d) in dst.iter_mut().enumerate() {
                            *d += acc[(r + t) * nr + j];
                        }
                    }
                    r += run;
                }
            }
        }
    }
}

/// Run the full blocked loop for one C stripe: rows `i0..i0+ms`, columns
/// `j0..j0+ns` of the logical `m x n` product, adding into `c` laid out
/// as `dst`.
///
/// # Safety
///
/// `c` must be valid for reads and writes of every element of C that the
/// stripe's rows and columns map to under `dst`, and no other thread may
/// access those elements meanwhile.
#[allow(clippy::too_many_arguments)]
// SAFETY: unsafe fn — callers uphold the `# Safety` contract above; `gemm`
// hands each call a disjoint stripe of a C it has checked with `Dst::fits`.
unsafe fn gemm_stripe(
    micro: Micro,
    k: usize,
    a: Lhs<'_>,
    b: &[f32],
    bv: View,
    c: *mut f32,
    dst: Dst,
    i0: usize,
    ms: usize,
    j0: usize,
    ns: usize,
) {
    let (mr, nr) = (micro.mr, micro.nr);
    // The packing routines fully write every strip the microkernel reads,
    // so the panels can start dirty — zeroing them each call would cost
    // more than the small GEMMs the U-Net issues.
    let mut apanel = scratch::take_dirty(MC.div_ceil(mr) * KC * mr);
    let mut bpanel = scratch::take_dirty(NC.div_ceil(nr) * KC * nr);
    let mut acc = [0.0f32; ACC_MAX];
    for jc in (0..ns).step_by(NC) {
        let nc = (ns - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b(&mut bpanel, nr, b, bv, pc, kc, j0 + jc, nc);
            for ic in (0..ms).step_by(MC) {
                let mc = (ms - ic).min(MC);
                a.pack(&mut apanel, mr, i0 + ic, mc, pc, kc);
                for jr in 0..nc.div_ceil(nr) {
                    let bstrip = &bpanel[jr * kc * nr..(jr * kc + kc) * nr];
                    let ncols = (nc - jr * nr).min(nr);
                    for ir in 0..mc.div_ceil(mr) {
                        let astrip = &apanel[ir * kc * mr..(ir * kc + kc) * mr];
                        let nrows = (mc - ir * mr).min(mr);
                        // SAFETY: strips hold kc*mr / kc*nr packed floats,
                        // acc is ACC_MAX >= mr*nr, ISA checked at detection.
                        unsafe {
                            (micro.kernel)(kc, astrip.as_ptr(), bstrip.as_ptr(), acc.as_mut_ptr());
                        }
                        let (row0, col0) = (i0 + ic + ir * mr, j0 + jc + jr * nr);
                        // SAFETY: the tile lies inside this call's stripe,
                        // which this fn's contract covers.
                        unsafe { dst.add_tile(c, &acc, nr, row0, nrows, col0, ncols) };
                    }
                }
            }
        }
    }
    scratch::put(bpanel);
    scratch::put(apanel);
}

/// `C += op(A) · op(B)` over the logical `m x k x n` product on up to
/// `threads` threads. Below [`PAR_FLOP_THRESHOLD`] one stripe runs on the
/// calling thread; above it the larger C axis splits into stripes aligned
/// to the micro-tile, so every shard owns its C elements outright and
/// amortises its redundant packing of the shared operand.
#[allow(clippy::too_many_arguments)]
fn gemm(
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: Lhs<'_>,
    b: &[f32],
    bv: View,
    c: &mut [f32],
    dst: Dst,
) {
    assert!(dst.fits(m, n, c.len()), "C is too small for the {m} x {n} product");
    if m == 0 || n == 0 || k == 0 {
        return; // C += 0 contribution
    }
    let micro = active_micro();
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    let budget = threads.max(1);
    let shards = if flops < PAR_FLOP_THRESHOLD || budget == 1 {
        1
    } else {
        budget
            .min(if m >= n {
                m.div_ceil(micro.mr)
            } else {
                n.div_ceil(micro.nr)
            })
            .max(1)
    };
    if shards == 1 {
        // SAFETY: the whole product fits the exclusively borrowed C.
        unsafe { gemm_stripe(micro, k, a, b, bv, c.as_mut_ptr(), dst, 0, m, 0, n) };
        return;
    }
    let cptr = c.as_mut_ptr() as usize;
    if m >= n {
        // Row stripes, aligned to mr so no two shards share a C row.
        let rows_per = m.div_ceil(shards).div_ceil(micro.mr) * micro.mr;
        let tasks = m.div_ceil(rows_per);
        parallel_for(tasks, &|t| {
            let i0 = t * rows_per;
            let ms = (m - i0).min(rows_per);
            // SAFETY: row stripes are disjoint and fit C; `parallel_for`
            // returns before the exclusive borrow of C ends.
            unsafe { gemm_stripe(micro, k, a, b, bv, cptr as *mut f32, dst, i0, ms, 0, n) };
        });
    } else {
        // Column stripes, aligned to nr.
        let cols_per = n.div_ceil(shards).div_ceil(micro.nr) * micro.nr;
        let tasks = n.div_ceil(cols_per);
        parallel_for(tasks, &|t| {
            let j0 = t * cols_per;
            let ns = (n - j0).min(cols_per);
            // SAFETY: column stripes are disjoint and fit C; `parallel_for`
            // returns before the exclusive borrow of C ends.
            unsafe { gemm_stripe(micro, k, a, b, bv, cptr as *mut f32, dst, 0, m, j0, ns) };
        });
    }
}

/// Blocked, threaded GEMM: `C += op(A) · op(B)` where `op(A)` is `m x k`
/// and `op(B)` is `k x n`, all row-major, with the configured thread
/// budget ([`configured_threads`]).
///
/// # Panics
///
/// Panics if a slice length does not match its operand shape.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    ta: Trans,
    tb: Trans,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    sgemm_with_threads(configured_threads(), ta, tb, m, k, n, a, b, c);
}

/// [`sgemm`] with an explicit thread budget (1 forces the single-threaded
/// blocked path; parity tests and benches sweep this).
///
/// # Panics
///
/// Panics if a slice length does not match its operand shape.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_with_threads(
    threads: usize,
    ta: Trans,
    tb: Trans,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A length must be m*k");
    assert_eq!(b.len(), k * n, "B length must be k*n");
    assert_eq!(c.len(), m * n, "C length must be m*n");
    let a = Lhs::Matrix(a, View::new(ta, m, k));
    gemm(
        threads,
        m,
        k,
        n,
        a,
        b,
        View::new(tb, k, n),
        c,
        Dst::RowMajor { ldc: n },
    );
}

/// Implicit-GEMM convolution forward: adds the convolution of the NCHW
/// input `x` (`[n, c, h, w]`) by the weight `wt` (`[o, c, kh, kw]`) into
/// the NCHW output `out` (`[n, o, ho, wo]`), with the configured thread
/// budget. The blocked loop packs its A strips from `x` and adds its
/// tiles into `out` directly, so no im2col matrix and no row-major
/// staging copy of the output ever exist.
///
/// # Panics
///
/// Panics if a slice length does not match the geometry.
pub(crate) fn conv2d_nchw(
    g: &ConvGeom,
    n: usize,
    o: usize,
    x: &[f32],
    wt: &[f32],
    out: &mut [f32],
) {
    let plane = g.ho * g.wo;
    let k = g.c * g.kh * g.kw;
    assert_eq!(x.len(), n * g.c * g.h * g.w, "input length must be n*c*h*w");
    assert_eq!(wt.len(), o * k, "weight length must be o*c*kh*kw");
    assert_eq!(out.len(), n * o * plane, "output length must be n*o*ho*wo");
    let a = Lhs::Im2col(x, *g);
    let dst = Dst::Nchw { plane, channels: o };
    gemm(
        configured_threads(),
        n * plane,
        k,
        o,
        a,
        wt,
        View::new(Trans::T, k, o),
        out,
        dst,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(
        ta: Trans,
        tb: Trans,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let av = View::new(ta, m, k);
        let bv = View::new(tb, k, n);
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0f32;
                for p in 0..k {
                    dot += a[av.at(i, p)] * b[bv.at(p, j)];
                }
                c[i * n + j] = dot;
            }
        }
        c
    }

    fn pattern(len: usize, seed: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * 0.37 + seed).sin() * 2.0).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let rel = (g - w).abs() / (1.0 + w.abs());
            assert!(rel < 1e-4, "{what}[{i}]: got {g}, want {w}");
        }
    }

    #[test]
    fn matches_reference_across_trans_combinations() {
        let (m, k, n) = (13, 21, 17);
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let a = pattern(m * k, 1.0);
                let b = pattern(k * n, 2.0);
                let want = reference(ta, tb, m, k, n, &a, &b);
                let mut c = vec![0.0f32; m * n];
                sgemm_with_threads(1, ta, tb, m, k, n, &a, &b, &mut c);
                assert_close(&c, &want, "st");
                let mut ct = vec![0.0f32; m * n];
                sgemm_with_threads(3, ta, tb, m, k, n, &a, &b, &mut ct);
                assert_close(&ct, &want, "mt");
            }
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, k, n) = (5, 4, 6);
        let a = pattern(m * k, 0.1);
        let b = pattern(k * n, 0.2);
        let init = pattern(m * n, 0.3);
        let mut want = init.clone();
        gemm_naive(m, k, n, &a, &b, &mut want);
        let mut c = init.clone();
        sgemm(Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
        assert_close(&c, &want, "accumulate");
    }

    #[test]
    fn spans_block_boundaries() {
        // Larger than MC/KC in at least one axis to cross packing edges.
        let (m, k, n) = (MC + 7, KC + 3, 37);
        let a = pattern(m * k, 0.7);
        let b = pattern(k * n, 0.9);
        let want = reference(Trans::N, Trans::N, m, k, n, &a, &b);
        let mut c = vec![0.0f32; m * n];
        sgemm_with_threads(2, Trans::N, Trans::N, m, k, n, &a, &b, &mut c);
        // fp association differs from the reference order; loose bound
        for (i, (g, w)) in c.iter().zip(&want).enumerate() {
            let rel = (g - w).abs() / (1.0 + w.abs());
            assert!(rel < 1e-3, "c[{i}]: got {g}, want {w}");
        }
    }

    #[test]
    fn degenerate_shapes_are_noops_or_tiny() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c = vec![1.0f32, 2.0];
        sgemm(Trans::N, Trans::N, 2, 0, 1, &a, &b, &mut c);
        assert_eq!(c, vec![1.0, 2.0], "k=0 leaves C unchanged");
        let mut c1 = vec![0.0f32];
        sgemm(Trans::N, Trans::N, 1, 1, 1, &[3.0], &[4.0], &mut c1);
        assert_eq!(c1, vec![12.0]);
    }

    #[test]
    fn microkernel_info_is_coherent() {
        let (name, mr, nr) = microkernel_info();
        assert!(!name.is_empty());
        assert!(mr * nr <= ACC_MAX);
    }
}
