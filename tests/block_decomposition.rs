//! Integration of the 2D block-decomposition extension: real solver
//! equivalence, simulator consistency, and a structural-model check built
//! from a message-list communication component.

use prodpred_simgrid::{MachineClass, Platform};
use prodpred_sor::{
    partition_blocks, partition_equal, simulate, simulate_blocks, solve_parallel_blocks,
    solve_parallel_strips, solve_seq, BlockLayout, DistSorConfig, Grid, Peer, SorParams,
};
use prodpred_stochastic::{max_of, Dependence, MaxStrategy, StochasticValue};
use prodpred_structural::{Param, PtToPtModel};

/// One block's per-phase communication: the sum, under the model's
/// dependence, of one `PtToPt` transfer (`latency + elements * size /
/// (bw_avail * ded_bw)`) per message. The block analogue of the strip
/// model's `SendLR + ReceLR`, and the oracle `simulate_blocks`' exchange
/// is held to below.
fn phase_comm_messages(model: &PtToPtModel, message_elements: &[f64]) -> StochasticValue {
    let eff_bw = model
        .bw_avail
        .value()
        .mul(&model.ded_bw.value(), model.dependence);
    message_elements
        .iter()
        .map(|&e| {
            Param::point(e)
                .value()
                .scale(model.size_elt)
                .div(&eff_bw, model.dependence)
                .shift(model.latency)
        })
        .reduce(|a, b| a.add(&b, model.dependence))
        .unwrap_or(StochasticValue::point(0.0))
}

#[test]
fn all_three_solvers_agree_bitwise() {
    let n = 41;
    let iters = 20;
    let params = SorParams::for_grid(n, iters);
    let mut seq = Grid::laplace_problem(n);
    solve_seq(&mut seq, params);

    let mut strips = Grid::laplace_problem(n);
    solve_parallel_strips(&mut strips, params, &partition_equal(n - 2, 3));
    assert_eq!(strips.max_diff(&seq), 0.0);

    let mut blocks = Grid::laplace_problem(n);
    solve_parallel_blocks(&mut blocks, params, BlockLayout::new(3, 2));
    assert_eq!(blocks.max_diff(&seq), 0.0);
}

#[test]
fn block_structural_model_tracks_simulator_when_dedicated() {
    // Build the block analogue of the SOR structural model by hand from
    // the published component pieces and check it against the simulator,
    // the same way the paper validates the strip model (§2.2.1).
    let p = 4;
    let n = 800;
    let iterations = 20;
    let platform = Platform::dedicated(&vec![MachineClass::Sparc10; p], 1.0e6);
    let layout = BlockLayout::squarest(p);
    let blocks = partition_blocks(n, layout);

    let network = PtToPtModel {
        size_elt: 8.0,
        ded_bw: Param::point(platform.network.spec.dedicated_bw),
        bw_avail: Param::point(0.58),
        latency: platform.network.spec.latency,
        dependence: Dependence::Related,
    };
    let bm = MachineClass::Sparc10.benchmark_secs_per_element();

    let comp_terms: Vec<_> = blocks
        .iter()
        .map(|b| StochasticValue::point(b.elements() as f64 / 2.0 * bm))
        .collect();
    let comm_terms: Vec<_> = blocks
        .iter()
        .map(|b| {
            let mut msgs = Vec::new();
            for (peer, elems) in [
                (Peer::Up, b.cols.len()),
                (Peer::Down, b.cols.len()),
                (Peer::Left, b.n_rows()),
                (Peer::Right, b.n_rows()),
            ] {
                let elems = elems as f64;
                if layout.neighbour(b.proc, peer).is_some() {
                    msgs.push(elems); // send
                    msgs.push(elems); // receive
                }
            }
            phase_comm_messages(&network, &msgs)
        })
        .collect();

    let per_iter = max_of(&comp_terms, MaxStrategy::ByMean)
        .add(
            &max_of(&comm_terms, MaxStrategy::ByMean),
            Dependence::Related,
        )
        .scale(2.0); // red + black phases
    let predicted = per_iter.scale(iterations as f64).mean();

    let run = simulate_blocks(
        &platform,
        &blocks,
        layout,
        DistSorConfig::new(n, iterations, 0.0),
    );
    let err = (predicted - run.total_secs).abs() / run.total_secs;
    assert!(
        err < 0.02,
        "predicted {predicted}, actual {}, err {err}",
        run.total_secs
    );
}

#[test]
fn comm_advantage_grows_with_processor_count() {
    // A strip interior processor moves 4N ghost elements per phase
    // regardless of P; a center block moves 8N/sqrt(P). The ratio is
    // sqrt(P)/2 — flat at 2x through P = 16, then growing (P = 64: 4x).
    // Verify the simulated comm-bound gap follows that curve.
    let n = 402;
    let mut ratios = Vec::new();
    for p in [16usize, 64] {
        let mut platform = Platform::dedicated(&vec![MachineClass::UltraSparc; p], 1.0e4);
        platform.network.spec.dedicated_bw = 1.0e5; // very slow: comm-bound
        let cfg = DistSorConfig::new(n, 5, 0.0);
        let t_strip = simulate(&platform, &partition_equal(n - 2, p), cfg).total_secs;
        let layout = BlockLayout::squarest(p);
        let t_block =
            simulate_blocks(&platform, &partition_blocks(n, layout), layout, cfg).total_secs;
        ratios.push(t_strip / t_block);
    }
    assert!(
        ratios[1] > ratios[0] * 1.3,
        "advantage should grow from P=16 to P=64: {ratios:?}"
    );
    assert!(
        ratios[0] > 1.3,
        "16-way block should clearly win: {ratios:?}"
    );
}
