//! Figure 2 — why dropping DC saves bits: the distribution of quantised
//! DC vs. AC coefficient magnitudes and the Huffman bit cost each
//! category pays.
//!
//! Usage: `cargo run --release -p dcdiff-bench --bin figure2 [-- --quick]`

use dcdiff_bench::{quick_mode, render_table, QUALITY};
use dcdiff_data::DatasetProfile;
use dcdiff_jpeg::bitstream::magnitude_code;
use dcdiff_jpeg::huffman::HuffmanTable;
use dcdiff_jpeg::{encode_coefficients, ChromaSampling, CoeffImage, DcDropMode};

fn main() {
    let quick = quick_mode();
    let count = if quick { 3 } else { 12 };
    let images = DatasetProfile::kodak().with_count(count).generate(0xF16);

    // magnitude-category histograms for DC (differential) and AC levels
    let mut dc_hist = [0u64; 12];
    let mut ac_hist = [0u64; 12];
    let mut dc_bits_total = 0u64;
    let mut ac_bits_total = 0u64;
    let mut dc_count = 0u64;
    let mut ac_count = 0u64;
    let dc_table = HuffmanTable::dc_luma();
    let ac_table = HuffmanTable::ac_luma();

    let mut full_bytes = 0usize;
    let mut dropped_bytes = 0usize;

    for image in &images {
        let coeffs = CoeffImage::from_image(image, QUALITY, ChromaSampling::Cs444);
        full_bytes += encode_coefficients(&coeffs).expect("encodable").len();
        dropped_bytes += encode_coefficients(&coeffs.clone().drop_dc(DcDropMode::KeepCorners))
            .expect("encodable")
            .len();
        let plane = coeffs.plane(0);
        let mut pred = 0i32;
        for by in 0..plane.blocks_y() {
            for bx in 0..plane.blocks_x() {
                let block = plane.block(bx, by);
                let diff = block[0] - pred;
                pred = block[0];
                let (cat, _) = magnitude_code(diff);
                dc_hist[(cat as usize).min(11)] += 1;
                dc_bits_total += (dc_table.code_len(cat as u8) as u32 + cat) as u64;
                dc_count += 1;
                for &level in &block[1..] {
                    if level != 0 {
                        let (cat, _) = magnitude_code(level);
                        ac_hist[(cat as usize).min(11)] += 1;
                        // approximate: run/size symbol with zero run
                        ac_bits_total += (ac_table.code_len(cat as u8).max(2) as u32 + cat) as u64;
                        ac_count += 1;
                    }
                }
            }
        }
    }

    let mut rows = Vec::new();
    for cat in 0..12 {
        let dc_pct = 100.0 * dc_hist[cat] as f64 / dc_count.max(1) as f64;
        let ac_pct = 100.0 * ac_hist[cat] as f64 / ac_count.max(1) as f64;
        rows.push(vec![
            format!("{cat}"),
            format!("{:.1}%", dc_pct),
            format!("{:.1}%", ac_pct),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Figure 2 (a) — magnitude-category distribution of luma coefficients",
            &["size category", "DC (diff-coded)", "AC (nonzero)"],
            &rows,
        )
    );

    println!(
        "{}",
        render_table(
            "Figure 2 (b) — average Huffman cost and coded size impact",
            &["quantity", "value"],
            &[
                vec![
                    "avg bits per coded DC".to_string(),
                    format!("{:.2}", dc_bits_total as f64 / dc_count.max(1) as f64),
                ],
                vec![
                    "avg bits per coded AC".to_string(),
                    format!("{:.2}", ac_bits_total as f64 / ac_count.max(1) as f64),
                ],
                vec![
                    "full JPEG bytes".to_string(),
                    format!("{full_bytes}"),
                ],
                vec![
                    "DC-dropped bytes".to_string(),
                    format!(
                        "{dropped_bytes} ({:.1}% of full)",
                        100.0 * dropped_bytes as f64 / full_bytes as f64
                    ),
                ],
            ],
        )
    );
}
