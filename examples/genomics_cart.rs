//! Decision-tree data mining with a hardware Gini scanner — the
//! HC-CART workload of the Convey HC-1 reference [17].
//!
//! The tree builder runs in software; its hot loop (Gini impurity over
//! all candidate thresholds) runs through the HLS kernel, and the test at
//! the end proves the hardware-scanned tree is *identical in accuracy*
//! to the software-scanned one.
//!
//! Run with: `cargo run --release --example genomics_cart`

use std::error::Error;

use ecoscale::apps::cart;
use ecoscale::hls::parse_kernel;

fn main() -> Result<(), Box<dyn Error>> {
    let train = cart::generate(2_000, 6, 1);
    let test = cart::generate(1_000, 6, 2);
    println!(
        "dataset: {} train / {} test samples, {} features",
        train.len(),
        test.len(),
        train.num_features
    );

    // software Gini scan
    let mut sw_scan = |x: &[f64], y: &[f64], t: &[f64]| cart::reference_gini(x, y, t);
    let sw_tree = cart::build_tree(&train, 5, 16, &mut sw_scan);

    // "hardware" Gini scan: the same computation through the HLS kernel
    // executor (what the simulated accelerator executes)
    let kernel = parse_kernel(cart::KERNEL)?;
    let mut scans = 0u64;
    let mut hw_scan = |x: &[f64], y: &[f64], t: &[f64]| {
        scans += 1;
        let mut args = cart::bind_args(x, y, t);
        args.run(&kernel).expect("kernel executes");
        args.take_array("gini").expect("bound")
    };
    let hw_tree = cart::build_tree(&train, 5, 16, &mut hw_scan);

    let sw_acc = cart::accuracy(&sw_tree, &test);
    let hw_acc = cart::accuracy(&hw_tree, &test);
    println!(
        "software-scanned tree: {} nodes, accuracy {:.3}",
        sw_tree.size(),
        sw_acc
    );
    println!(
        "hardware-scanned tree: {} nodes, accuracy {:.3}",
        hw_tree.size(),
        hw_acc
    );
    println!("gini kernel invocations: {scans}");

    assert_eq!(sw_tree.size(), hw_tree.size());
    assert!((sw_acc - hw_acc).abs() < 1e-12, "trees must agree exactly");
    assert!(hw_acc > 0.85, "separable data should classify well");
    println!("\nhardware and software trees agree exactly.");
    Ok(())
}
