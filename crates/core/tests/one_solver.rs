//! ICIP-2022 and the masked-Laplacian refinement share one DC-offset
//! solver, `dcdiff_baselines::AcField::solve`. Each used to carry its own
//! edge walk, adjacency lists and Gauss–Seidel sweep; this test keeps
//! verbatim copies of those two loops as references and checks, with
//! `==` on the outputs and on the offsets' bits, that the shared solver
//! reproduces both across scene kinds, sizes, qualities, samplings,
//! sweep budgets, energy mechanisms, prior weights, thresholds and priors.

use dcdiff_baselines::{AcField, DcRecovery, Icip2022, RefineConfig};
use dcdiff_core::refine_dc_offsets_with;
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::Image;
use dcdiff_jpeg::dct::idct;
use dcdiff_jpeg::quant::QuantTable;
use dcdiff_jpeg::{ChromaSampling, CoeffImage, CoeffPlane, DcDropMode, BLOCK, BLOCK_AREA};

const ICIP: RefineConfig = RefineConfig {
    trend: false,
    activity: true,
    consensus: false,
};

/// One coupling between two adjacent blocks, as both reference loops
/// stored it.
struct Edge {
    a: usize,
    b: usize,
    weight: f32,
    bias: f32,
}

fn corners(bw: usize, bh: usize) -> [(usize, usize); 4] {
    [(0, 0), (bw - 1, 0), (0, bh - 1), (bw - 1, bh - 1)]
}

fn column(ac: &[[f32; BLOCK_AREA]], b: usize, x: usize) -> [f32; BLOCK] {
    std::array::from_fn(|y| ac[b][y * BLOCK + x])
}

fn row(ac: &[[f32; BLOCK_AREA]], b: usize, y: usize) -> [f32; BLOCK] {
    std::array::from_fn(|x| ac[b][y * BLOCK + x])
}

/// The adjacency both reference loops built from their edge lists.
fn adjacency(n: usize, edges: &[Edge]) -> Vec<Vec<(usize, f32, f32)>> {
    let mut adj: Vec<Vec<(usize, f32, f32)>> = vec![Vec::new(); n];
    for e in edges {
        adj[e.a].push((e.b, e.weight, -e.bias));
        adj[e.b].push((e.a, e.weight, e.bias));
    }
    adj
}

/// Walk every right and down edge in row-major order, right before down;
/// `stats` maps the four boundary strips (a's last two, b's first two) to
/// an edge's weight and bias.
fn walk_edges(
    ac: &[[f32; BLOCK_AREA]],
    bw: usize,
    bh: usize,
    mut stats: impl FnMut(&[f32; BLOCK], &[f32; BLOCK], &[f32; BLOCK], &[f32; BLOCK]) -> (f32, f32),
) -> Vec<Edge> {
    let mut edges = Vec::new();
    for by in 0..bh {
        for bx in 0..bw {
            let a = by * bw + bx;
            if bx + 1 < bw {
                let b = a + 1;
                let (weight, bias) = stats(
                    &column(ac, a, BLOCK - 1),
                    &column(ac, a, BLOCK - 2),
                    &column(ac, b, 0),
                    &column(ac, b, 1),
                );
                edges.push(Edge { a, b, weight, bias });
            }
            if by + 1 < bh {
                let b = a + bw;
                let (weight, bias) = stats(
                    &row(ac, a, BLOCK - 1),
                    &row(ac, a, BLOCK - 2),
                    &row(ac, b, 0),
                    &row(ac, b, 1),
                );
                edges.push(Edge { a, b, weight, bias });
            }
        }
    }
    edges
}

/// ICIP-2022's own AC decomposition, and the refinement's: the IDCT of
/// each block with DC zeroed, every block transformed.
fn icip_ac_pixels(plane: &CoeffPlane, qtable: &QuantTable) -> Vec<[f32; BLOCK_AREA]> {
    let mut pixels = Vec::new();
    for y in 0..plane.blocks_y() {
        for x in 0..plane.blocks_x() {
            let mut levels = *plane.block(x, y);
            levels[0] = 0;
            pixels.push(idct(&qtable.dequantize(&levels)));
        }
    }
    pixels
}

/// ICIP-2022's own solve of one plane: direction-selective pair weights
/// summed per edge, zero start, anchors fixed, Gauss–Seidel.
fn icip_offsets(plane: &CoeffPlane, qtable: &QuantTable, sweeps: usize) -> Vec<f32> {
    let (bw, bh) = (plane.blocks_x(), plane.blocks_y());
    let n = bw * bh;
    let dc_step = qtable.values()[0] as f32 / 8.0;
    let ac = icip_ac_pixels(plane, qtable);
    let pair_weight = |activity: f32| -> f32 { 1.0 / (1.0 + activity * activity / 25.0) };
    let edges = walk_edges(&ac, bw, bh, |a7, a6, b0, b1| {
        let mut weight = 0.0;
        let mut bias = 0.0;
        for k in 0..BLOCK {
            let activity = (a7[k] - a6[k]).abs() + (b1[k] - b0[k]).abs();
            let w = pair_weight(activity);
            weight += w;
            bias += w * (a7[k] - b0[k]);
        }
        (weight, bias)
    });
    let adj = adjacency(n, &edges);
    let mut fixed: Vec<Option<f32>> = vec![None; n];
    for (x, y) in corners(bw, bh) {
        fixed[y * bw + x] = Some(plane.dc(x, y) as f32 * dc_step);
    }
    let mut offsets = vec![0.0f32; n];
    for (i, f) in fixed.iter().enumerate() {
        if let Some(v) = f {
            offsets[i] = *v;
        }
    }
    for _ in 0..sweeps {
        for i in 0..n {
            if fixed[i].is_some() {
                continue;
            }
            let mut num = 0.0f32;
            let mut den = 0.0f32;
            for &(j, w, d) in &adj[i] {
                num += w * offsets[j] + d;
                den += w;
            }
            if den > 0.0 {
                offsets[i] = num / den;
            }
        }
    }
    offsets
}

/// ICIP-2022's own recovery: per-plane solve, then every block (anchors
/// included) written back clamped to ±160 px.
fn icip_reference(dropped: &CoeffImage, sweeps: usize) -> CoeffImage {
    let mut out = dropped.clone();
    for c in 0..dropped.channels() {
        let (plane, qtable) = (dropped.plane(c), dropped.qtable(c));
        let dc_step = qtable.values()[0] as f32 / 8.0;
        let offsets = icip_offsets(plane, qtable, sweeps);
        for by in 0..plane.blocks_y() {
            for bx in 0..plane.blocks_x() {
                let clamped = offsets[by * plane.blocks_x() + bx].clamp(-160.0, 160.0);
                out.plane_mut(c)
                    .set_dc(bx, by, (clamped / dc_step).round() as i32);
            }
        }
    }
    out
}

/// The refinement's own per-edge statistics.
fn edge_statistics(
    ea: &[f32; BLOCK],
    ea2: &[f32; BLOCK],
    eb: &[f32; BLOCK],
    eb2: &[f32; BLOCK],
    threshold: f32,
    config: RefineConfig,
) -> (f32, f32) {
    const SLOPE_SIGMA2: f32 = 25.0;
    let mut residuals = [0.0f32; BLOCK];
    let mut activity = [0.0f32; BLOCK];
    for k in 0..BLOCK {
        let slope_a = ea[k] - ea2[k];
        let slope_b = eb2[k] - eb[k];
        let agreement = 1.0 / (1.0 + (slope_a - slope_b).powi(2) / SLOPE_SIGMA2);
        let trend = if config.trend {
            agreement * 0.5 * (slope_a + slope_b)
        } else {
            0.0
        };
        residuals[k] = ea[k] - eb[k] + trend;
        let act = slope_a.abs() + slope_b.abs();
        activity[k] = if config.activity {
            1.0 / (1.0 + act * act / SLOPE_SIGMA2)
        } else {
            1.0
        };
    }
    let mut sorted = residuals;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
    let median = sorted[BLOCK / 2];
    let mut devs = [0.0f32; BLOCK];
    for k in 0..BLOCK {
        devs[k] = (residuals[k] - median).abs();
    }
    devs.sort_by(|a, b| a.partial_cmp(b).expect("finite residuals"));
    let mad = devs[BLOCK / 2];
    let t_eff = (threshold / 10.0 * (1.5 * mad).max(10.0)).max(0.25);
    let t2 = t_eff * t_eff;
    let mut weight = 0.0f32;
    let mut bias = 0.0f32;
    for k in 0..BLOCK {
        let d = residuals[k] - median;
        let consensus = if config.consensus {
            1.0 / (1.0 + d * d / t2)
        } else {
            1.0
        };
        let w = activity[k] * consensus;
        weight += w;
        bias += w * residuals[k];
    }
    (weight / BLOCK as f32, bias / BLOCK as f32)
}

/// The refinement's own solve of one plane: prior clamped to ±140 px as
/// the starting point, anchors fixed, Gauss–Seidel with the λ term.
fn refine_offsets(
    plane: &CoeffPlane,
    qtable: &QuantTable,
    gen_plane: &CoeffPlane,
    threshold: f32,
    prior_weight: f32,
    sweeps: usize,
    config: RefineConfig,
) -> (Vec<f32>, Vec<bool>) {
    let dc_step = qtable.values()[0] as f32 / 8.0;
    let (bw, bh) = (plane.blocks_x(), plane.blocks_y());
    let n = bw * bh;
    let ac = icip_ac_pixels(plane, qtable);
    let mut offsets: Vec<f32> = (0..n)
        .map(|i| (gen_plane.dc(i % bw, i / bw) as f32 * dc_step).clamp(-140.0, 140.0))
        .collect();
    let prior = offsets.clone();
    let mut fixed = vec![false; n];
    for (bx, by) in corners(bw, bh) {
        let i = by * bw + bx;
        offsets[i] = plane.dc(bx, by) as f32 * dc_step;
        fixed[i] = true;
    }
    let mut edges = walk_edges(&ac, bw, bh, |ea, ea2, eb, eb2| {
        edge_statistics(ea, ea2, eb, eb2, threshold, config)
    });
    edges.retain(|e| e.weight > 0.0);
    let adj = adjacency(n, &edges);
    for _ in 0..sweeps {
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            let mut num = prior_weight * prior[i];
            let mut den = prior_weight;
            for &(j, w, d) in &adj[i] {
                num += w * offsets[j] + d;
                den += w;
            }
            if den > 0.0 {
                offsets[i] = num / den;
            }
        }
    }
    (offsets, fixed)
}

/// The refinement's own recovery: anchors keep the generated levels,
/// every other block takes its offset unclamped.
fn refine_reference(
    dropped: &CoeffImage,
    generated: &CoeffImage,
    threshold: f32,
    prior_weight: f32,
    sweeps: usize,
    config: RefineConfig,
) -> CoeffImage {
    let mut out = generated.clone();
    for c in 0..dropped.channels() {
        let (plane, qtable) = (dropped.plane(c), dropped.qtable(c));
        let dc_step = qtable.values()[0] as f32 / 8.0;
        let (offsets, fixed) = refine_offsets(
            plane,
            qtable,
            generated.plane(c),
            threshold,
            prior_weight,
            sweeps,
            config,
        );
        let bw = plane.blocks_x();
        for by in 0..plane.blocks_y() {
            for bx in 0..bw {
                let i = by * bw + bx;
                if !fixed[i] {
                    out.plane_mut(c)
                        .set_dc(bx, by, (offsets[i] / dc_step).round() as i32);
                }
            }
        }
    }
    out
}

fn bits(offsets: &[f32]) -> Vec<u32> {
    offsets.iter().map(|o| o.to_bits()).collect()
}

/// A DC-dropped test case and its full-DC coefficients (the true-DC prior).
struct Case {
    label: String,
    coeffs: CoeffImage,
    dropped: CoeffImage,
}

fn case(
    kind: SceneKind,
    (w, h): (usize, usize),
    quality: u8,
    sampling: Option<ChromaSampling>,
    seed: u64,
) -> Case {
    let scene = SceneGenerator::new(kind, w, h).generate(seed);
    let (image, sampling, tag): (Image, _, _) = match sampling {
        Some(s) => (scene, s, format!("{s:?}")),
        None => (scene.to_gray(), ChromaSampling::Cs444, "gray".to_string()),
    };
    let coeffs = CoeffImage::from_image(&image, quality, sampling);
    let dropped = coeffs.clone().drop_dc(DcDropMode::KeepCorners);
    Case {
        label: format!("{kind:?} {w}x{h} Q{quality} {tag} seed {seed}"),
        coeffs,
        dropped,
    }
}

const KINDS: [SceneKind; 5] = [
    SceneKind::Smooth,
    SceneKind::Natural,
    SceneKind::Texture,
    SceneKind::Urban,
    SceneKind::Aerial,
];
const SAMPLINGS: [Option<ChromaSampling>; 4] = [
    Some(ChromaSampling::Cs444),
    Some(ChromaSampling::Cs420),
    Some(ChromaSampling::Cs422),
    None,
];
const QUALITIES: [u8; 3] = [5, 50, 95];

/// Every size × sampling, cycling scene kinds, qualities and seeds, so
/// each size meets every quality and each sampling every kind.
fn cases(sizes: &[(usize, usize)]) -> Vec<Case> {
    let mut out = Vec::new();
    for &size in sizes {
        for sampling in SAMPLINGS {
            let k = out.len();
            out.push(case(
                KINDS[k % KINDS.len()],
                size,
                QUALITIES[k % QUALITIES.len()],
                sampling,
                k as u64,
            ));
        }
    }
    out
}

fn all_configs() -> Vec<RefineConfig> {
    (0..8)
        .map(|m| RefineConfig {
            trend: m & 1 != 0,
            activity: m & 2 != 0,
            consensus: m & 4 != 0,
        })
        .collect()
}

fn assert_icip_matches(c: &Case, sweeps: usize) {
    let d = &c.dropped;
    for p in 0..d.channels() {
        let field = AcField::new(d.plane(p), d.qtable(p));
        let zero = vec![0.0; field.anchors.len()];
        assert_eq!(
            bits(&field.solve(&zero, 0.0, 10.0, ICIP, sweeps)),
            bits(&icip_offsets(d.plane(p), d.qtable(p), sweeps)),
            "{}: ICIP offsets, plane {p}, {sweeps} sweeps",
            c.label
        );
    }
    assert!(
        Icip2022::with_sweeps(sweeps).recover_coefficients(d) == icip_reference(d, sweeps),
        "{}: ICIP levels, {sweeps} sweeps",
        c.label
    );
}

fn assert_refine_matches(
    c: &Case,
    prior: &CoeffImage,
    t: f32,
    lambda: f32,
    sweeps: usize,
    cfg: RefineConfig,
) {
    let d = &c.dropped;
    let what = format!("{}: {cfg:?} T={t} λ={lambda} {sweeps} sweeps", c.label);
    for p in 0..d.channels() {
        let field = AcField::new(d.plane(p), d.qtable(p));
        let (want, _) = refine_offsets(
            d.plane(p),
            d.qtable(p),
            prior.plane(p),
            t,
            lambda,
            sweeps,
            cfg,
        );
        let gen = prior.plane(p);
        let bw = field.blocks_x;
        let start: Vec<f32> = (0..field.anchors.len())
            .map(|i| (gen.dc(i % bw, i / bw) as f32 * field.dc_step).clamp(-140.0, 140.0))
            .collect();
        assert_eq!(
            bits(&field.solve(&start, lambda, t, cfg, sweeps)),
            bits(&want),
            "{what}: offsets, plane {p}"
        );
    }
    assert!(
        refine_dc_offsets_with(d, prior, t, lambda, sweeps, cfg)
            == refine_reference(d, prior, t, lambda, sweeps, cfg),
        "{what}: levels"
    );
}

#[test]
fn icip2022_is_the_shared_solve_bit_for_bit() {
    let mut cases = cases(&[(8, 8), (16, 16), (37, 53), (64, 64), (129, 67), (256, 256)]);
    // an Urban scene whose solve passes +160 px, so the clamp is exercised
    cases.push(case(
        SceneKind::Urban,
        (256, 256),
        95,
        Some(ChromaSampling::Cs422),
        10,
    ));
    for c in &cases {
        for sweeps in [1, 120] {
            assert_icip_matches(c, sweeps);
        }
    }
}

#[test]
fn refinement_is_the_shared_solve_bit_for_bit() {
    // every mechanism switch × λ × T × prior on the small canvases
    let thresholds = [0.0, 10.0, f32::INFINITY];
    let lambdas = [0.0, 5e-4, 1e-3, 50.0];
    for c in &cases(&[(8, 8), (16, 24), (37, 21), (24, 40)]) {
        for prior in [&c.dropped, &c.coeffs] {
            for cfg in all_configs() {
                for t in thresholds {
                    for lambda in lambdas {
                        assert_refine_matches(c, prior, t, lambda, 7, cfg);
                    }
                }
            }
        }
    }
    // the served settings on the large and odd canvases
    for c in &cases(&[(64, 64), (129, 67), (256, 256), (53, 37)]) {
        for prior in [&c.dropped, &c.coeffs] {
            assert_refine_matches(c, prior, 10.0, 1e-3, 150, RefineConfig::default());
            assert_refine_matches(c, prior, 10.0, 0.0, 120, ICIP);
        }
    }
}
