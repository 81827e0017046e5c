//! Table 5: fine-tuning mIoU of EfficientVitLite on SynthScapes under INT8
//! integer-only quantization, replacing HSWISH, DIV and both with 8-entry
//! pwl LUTs from the three methods.
//!
//! Run with: `cargo run -p gqa-bench --release --bin table5_efficientvit`
//! (pass `--quick` for a reduced-budget smoke run)

use gqa_funcs::NonLinearOp;
use gqa_models::{
    EffVitConfig, EfficientVitLite, FinetuneHarness, Method, ReplaceSet, TrainConfig,
};
use gqa_serve::{EngineBuilder, OpPlan};
use gqa_tensor::ParamStore;
use std::sync::Arc;

use gqa_bench::table::Table;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (train_cfg, lut_budget) = if quick {
        let mut c = TrainConfig::tiny();
        c.pretrain_epochs = 6;
        (c, 0.05)
    } else {
        (TrainConfig::benchmark(), 0.25)
    };

    println!("Table 5: Fine-tuning mIoU of EfficientVitLite on SynthScapes\n");
    let harness = FinetuneHarness::new(train_cfg);
    let mut ps = ParamStore::new();
    let vit_cfg = if quick {
        EffVitConfig::tiny()
    } else {
        EffVitConfig::benchmark()
    };
    let model = EfficientVitLite::new(&mut ps, vit_cfg, 2024);

    eprintln!("[table5] pre-training + INT8 quantization...");
    let baseline = harness.pretrain_and_quantize(&model, &mut ps);
    println!(
        "Baseline (None replaced): mIoU {:.2}%  (pixel acc {:.2}%)\n",
        100.0 * baseline.miou,
        100.0 * baseline.pixel_accuracy
    );
    let calib = harness.calibrate(&model, &ps);

    // One artifact registry shared by every per-row engine, so the rows
    // share LUTs per (method, op) and GQA_LUT_SNAPSHOT warm starts work.
    let registry = gqa_bench::registry();

    let replacements = [
        ReplaceSet::only(NonLinearOp::Hswish),
        ReplaceSet::only(NonLinearOp::Div),
        ReplaceSet {
            hswish: true,
            div: true,
            ..ReplaceSet::none()
        },
    ];

    let mut t = Table::new(vec![
        "Replacement".into(),
        "NN-LUT".into(),
        "GQA-LUT w/o RM".into(),
        "GQA-LUT w/ RM".into(),
    ]);
    t.row(vec![
        "None".into(),
        format!("{:.2}%", 100.0 * baseline.miou),
        format!("{:.2}%", 100.0 * baseline.miou),
        format!("{:.2}%", 100.0 * baseline.miou),
    ]);

    for (i, replace) in replacements.iter().enumerate() {
        let label = if i == replacements.len() - 1 {
            "Altogether".to_owned()
        } else {
            replace.label()
        };
        let mut cells = vec![label];
        for method in Method::ALL {
            eprintln!("[table5] {} / {}...", replace.label(), method.label());
            let plan = replace
                .to_plan(OpPlan::new(method).with_seed(2024).with_budget(lut_budget))
                .calibrated(&calib);
            let engine = EngineBuilder::new(plan)
                .with_registry(Arc::clone(&registry))
                .build()
                .expect("engine build");
            let session = engine.session();
            let mut ps_run = ps.clone();
            let out = harness.finetune_with_backend(&model, &mut ps_run, &session);
            let delta = 100.0 * (out.miou - baseline.miou);
            cells.push(format!("{:.2}% ({delta:+.2})", 100.0 * out.miou));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "\nPaper reference (EfficientViT-B0 / Cityscapes): None 74.17; Altogether rows \
         73.27 / 73.79 / 74.15 — ordering NN-LUT < w/o RM < w/ RM ≈ baseline."
    );
    eprintln!("[table5] shared registry: {}", registry.stats());
}
