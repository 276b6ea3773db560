//! Distributed rebalance planning.
//!
//! The static balancers in `trillium-blockforest` distribute blocks once,
//! before the run. Blocks migrate later only when the run asks for it:
//! the rebalance hook in `trillium-core` weighs each block by the cells
//! its sweep visits — what it holds, as the set-up balancer does (paper
//! §2.3) — and hands this crate one [`BlockRecord`] per block:
//!
//! * [`plan_rebalance`] — computes a new owner for every block from the
//!   records' costs, preferring the multilevel graph partitioner and
//!   falling back to a Morton space-filling-curve cut when the graph
//!   gain is below a floor. A plan that does not lower the load ratio by
//!   [`PlanOptions::min_graph_gain`] is `NoOp`, so re-planning fixed
//!   costs ends after finitely many rounds.
//! * [`hetero::plan_rebalance_hetero`] — the same curve cut with shares
//!   proportional to the per-rank speeds of a [`hetero::RankPool`], so it
//!   balances wall time instead of raw cost.
//!
//! Both planners place blocks with the one curve cutter of
//! `trillium_blockforest::balance` (`curve_order` + `cut_curve`), the
//! mechanism the static set-up balancer uses; they differ from it and
//! from each other only in the workload (the record's cost instead of
//! fluid cells) and the quotas (equal parts, or `speed_r / Σ speed`).
//!
//! The crate is deliberately communication-free: callers allgather
//! [`BlockRecord`]s (via `trillium-comm`) and every rank runs the same
//! deterministic plan on the same sorted input, so no coordination round
//! is needed to agree on the outcome. The migration protocol that acts
//! on a plan lives in `trillium-core::migrate`, next to the block state
//! it has to serialize.

pub mod hetero;
pub mod plan;

pub use plan::{plan_rebalance, BlockRecord, Migration, PlanMethod, PlanOptions, RebalancePlan};

/// Golden placement: the owner vectors the four callers of the one curve
/// cutter (`blockforest::balance::cut_curve`) produced when each still
/// carried its own copy of the walk, captured at the parent of the PR
/// that merged them. One digit per block, in block (or record-id) order.
#[cfg(test)]
mod placement_golden {
    use crate::hetero::{plan_rebalance_hetero, RankPool};
    use crate::{plan_rebalance, BlockRecord, PlanMethod, PlanOptions};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use trillium_blockforest::{morton_balance, skewed_balance, SetupForest};
    use trillium_geometry::vec3::vec3;
    use trillium_geometry::Aabb;

    fn digits(owners: impl IntoIterator<Item = u32>) -> String {
        owners.into_iter().map(|r| char::from_digit(r, 10).expect("fewer than ten ranks")).collect()
    }

    fn ranks(forest: &SetupForest) -> String {
        digits(forest.blocks.iter().map(|b| b.rank))
    }

    fn uniform(roots: [usize; 3], cells: usize) -> SetupForest {
        let domain =
            Aabb::new(vec3(0.0, 0.0, 0.0), vec3(roots[0] as f64, roots[1] as f64, roots[2] as f64));
        SetupForest::uniform(domain, roots, [cells; 3])
    }

    /// The two-level refined forest of
    /// `balance::tests::assignment_is_pinned_on_mixed_level_and_uniform_forests`.
    fn mixed_level() -> SetupForest {
        let mut forest = uniform([2, 2, 2], 16);
        let target = forest.blocks[3].id;
        forest.refine_where(|b| b.id == target);
        let child = forest.blocks.iter().find(|b| b.id.level() == 1).expect("refined").id;
        forest.refine_where(|b| b.id == child);
        forest
    }

    /// A 4 x 4 x 3 forest whose workloads vary block by block.
    fn ragged() -> SetupForest {
        let mut forest = uniform([4, 4, 3], 8);
        for (i, b) in forest.blocks.iter_mut().enumerate() {
            b.workload = 100.0 + ((i * 7) % 11) as f64 * 37.0;
        }
        forest
    }

    /// The benchmark's `skewed_records` (`benchmark/src/probes.rs`): an `e³`
    /// grid, three quarters of it piled on rank 0.
    fn skewed_records(e: u32, ranks: u32) -> Vec<BlockRecord> {
        let n = e * e * e;
        (0..n)
            .map(|i| BlockRecord {
                id: u64::from(i),
                owner: if i < n * 3 / 4 { 0 } else { i % ranks },
                coords: [i % e, (i / e) % e, i / (e * e)],
                level: 0,
                cost: 1.0 + 0.3 * f64::from(i % 7),
                fluid_cells: 4096,
            })
            .collect()
    }

    const UNIFORM_8_ON_2: &str = "\
        0000000000000000000000000000000000000000000000000000000000000000\
        0000000000000000000000000000000000000000000000000000000000000000\
        0000000000000000000000000000000000000000000000000000000000000000\
        0000000000000000000000000000000000000000000000000000000000000000\
        1111111111111111111111111111111111111111111111111111111111111111\
        1111111111111111111111111111111111111111111111111111111111111111\
        1111111111111111111111111111111111111111111111111111111111111111\
        1111111111111111111111111111111111111111111111111111111111111111";
    const UNIFORM_8_ON_3: &str = "\
        0000000000000000000000000000000000001111000011110000111100001111\
        0000000000000000000000000000000000001111000011110000111100001111\
        0000000000000000000000000000000000001111000111111111111111111111\
        0000000000000000000000000000000000111111001111111111111111111111\
        1111111111111111111111221111112222222222222222222222222222222222\
        1111111111111111111112221111222222222222222222222222222222222222\
        1111222211112222111122221111222222222222222222222222222222222222\
        1111222211112222111122221111222222222222222222222222222222222222";
    const UNIFORM_8_ON_7: &str = "\
        0000000100000011000011110000111111112222111122221122222222222223\
        0000001100000011000011110000111111112222111122222222223322222233\
        0000111100001111000011110000111122223333222233332222333322223333\
        0000111100001111000011110000111122223333222233332222333322223333\
        3333444433334444333344443333444455556666555566665555666655556666\
        3333444433334444333344443333444455556666555566665555666655556666\
        3344444433444444444455554444555555556666555566665566666655666666\
        3444444444444455444455554444555555556666555566665566666656666666";
    const MIXED_ON_4: &str = "0012233111111111111111";
    const SKEWED_CAVITY_JOB_ON_2: &str = "00000011";
    const SKEWED_RAGGED_ON_4: &str = "000000000000000000000000000000000011001122222333";
    const SFC_FALLBACK_ON_8: &str = "\
        0000222200002222000022220000222255555566555555665555666655556666\
        0000222200002222000022220000222255555666555566665555666655556666\
        0000222200002222000022220022222255556666555566665555666655556666\
        0000222200002222002222220022222255556666555566665555666655556666\
        6333334433333344333344443333444444117777111177771111777711117777\
        3333334433334444333344443333444411117777111177771111777711117777\
        3333444433334444333344443333444411117777111177771111777711117777\
        3333444433334444333344443333444411117777111177771111777711777777";
    const HETERO_ON_8: &str = "\
        0000223300002233000033330011333344444444444444444444555544445555\
        0000223300003333001133330011333344444444444444444444555544445555\
        1111334411113344222244442222444444445555444455554444555544445555\
        1111334411123444222244442222444444445555444455554444555544445555\
        5555666655556666555566665555666666667777666677776677777766777777\
        5555666655556666555566665555666666667777666677776677777766777777\
        5555666655556666555566665566666677777777777777777777777777777777\
        5555666655556666556666665566666677777777777777777777777777777777";

    #[test]
    fn morton_balance_matches_the_parent() {
        let mut forest = uniform([8, 8, 8], 8);
        for (procs, expected) in [(2, UNIFORM_8_ON_2), (3, UNIFORM_8_ON_3), (7, UNIFORM_8_ON_7)] {
            morton_balance(&mut forest, procs);
            assert_eq!(ranks(&forest), expected, "8^3 uniform forest on {procs} ranks");
        }
        let mut mixed = mixed_level();
        morton_balance(&mut mixed, 4);
        assert_eq!(ranks(&mixed), MIXED_ON_4);
    }

    #[test]
    fn skewed_balance_matches_the_parent() {
        // The `cavity-rebalanced` job template: 2^3 blocks, 2 ranks, skew 0.75.
        let mut cavity = uniform([2, 2, 2], 8);
        skewed_balance(&mut cavity, 2, 0.75);
        assert_eq!(ranks(&cavity), SKEWED_CAVITY_JOB_ON_2);
        let mut forest = ragged();
        skewed_balance(&mut forest, 4, 0.75);
        assert_eq!(ranks(&forest), SKEWED_RAGGED_ON_4);
    }

    #[test]
    fn the_sfc_fallback_matches_the_parent() {
        // A gain floor the graph plan (0.832 at this seed) misses and the
        // curve cut (0.839) reaches.
        let opts = PlanOptions { min_graph_gain: 0.836, ..PlanOptions::default() };
        let plan = plan_rebalance(skewed_records(8, 8), 8, &opts);
        assert_eq!(plan.method, PlanMethod::MortonSfc);
        assert_eq!(digits(plan.assignment), SFC_FALLBACK_ON_8);
    }

    #[test]
    fn the_pool_placement_matches_the_parent() {
        let pool = RankPool::from_speeds(vec![1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]);
        let plan =
            plan_rebalance_hetero(skewed_records(8, 8), &pool, PlanOptions::default().min_ratio);
        assert_eq!(plan.method, PlanMethod::MortonSfc);
        assert_eq!(digits(plan.assignment), HETERO_ON_8);
    }

    /// One of 300 seeded record sets: a uniform grid or the mixed-level
    /// forest on 2-8 ranks, most blocks piled on rank 0, shuffled.
    fn seeded_records(rng: &mut StdRng, case: usize) -> (Vec<BlockRecord>, u32) {
        let procs = rng.gen_range(2..9u32);
        let forest = if case.is_multiple_of(3) {
            mixed_level()
        } else {
            let roots = [0; 3].map(|_| rng.gen_range(1..6usize));
            uniform(roots, 8)
        };
        let mut records: Vec<BlockRecord> = forest
            .blocks
            .iter()
            .map(|b| BlockRecord {
                id: b.id.pack(),
                owner: if rng.gen_bool(0.7) { 0 } else { rng.gen_range(0..procs) },
                coords: b.coords.map(|c| c as u32),
                level: b.id.level(),
                cost: rng.gen_range(0.5..20.0f64),
                fluid_cells: rng.gen_range(1..4096u64),
            })
            .collect();
        records.shuffle(rng);
        (records, procs)
    }

    /// What `execute_migrations` relies on, now that nothing re-checks a
    /// plan: over the 300 seeded record sets, both planners return the
    /// input records sorted by id and unique, and an owner below the rank
    /// count for each.
    #[test]
    fn plans_hold_the_sorted_records_and_owners_in_range() {
        let mut rng = StdRng::seed_from_u64(44);
        for case in 0..300 {
            let (mut records, procs) = seeded_records(&mut rng, case);
            let gain = [0.0, 0.05, 0.9][rng.gen_range(0..3usize)];
            let opts = PlanOptions { min_graph_gain: gain, ..PlanOptions::default() };
            let speeds = (0..procs).map(|_| rng.gen_range(0.5..8.0f64)).collect();
            let plans = [
                plan_rebalance(records.clone(), procs, &opts),
                plan_rebalance_hetero(records.clone(), &RankPool::from_speeds(speeds), 0.0),
            ];
            records.sort_by_key(|r| r.id);
            for plan in plans {
                assert_eq!(plan.records, records, "case {case}: the input records, by id");
                let sorted = plan.records.windows(2).all(|w| w[0].id < w[1].id);
                assert!(sorted, "case {case}: unique ids");
                assert_eq!(plan.assignment.len(), records.len(), "case {case}");
                assert!(plan.assignment.iter().all(|&a| a < procs), "case {case}: {procs} ranks");
            }
        }
    }

    /// Why the rebalance hook needs no cooldown: its costs are fixed
    /// between migrations, so re-planning after a round sees exactly the
    /// plan's own owners. Over the 300 seeded record sets, with the hook's
    /// options, each accepted round lowers the ratio by at least
    /// `min_graph_gain` and the rounds reach `NoOp` within the bound that
    /// follows: a ratio starts at most at `procs` and a plan is `NoOp` at
    /// or below `min_ratio`.
    #[test]
    fn replanning_fixed_costs_reaches_noop() {
        let opts = PlanOptions::default();
        let mut rng = StdRng::seed_from_u64(44);
        let mut longest = 0;
        for case in 0..300 {
            let (mut records, procs) = seeded_records(&mut rng, case);
            let bound =
                (f64::from(procs) / opts.min_ratio).ln() / -(1.0 - opts.min_graph_gain).ln();
            let mut rounds = 0;
            loop {
                let plan = plan_rebalance(records.clone(), procs, &opts);
                if plan.method == PlanMethod::NoOp {
                    assert_eq!(plan.migrations().count(), 0, "case {case}");
                    break;
                }
                let gain = (plan.old_ratio - plan.new_ratio) / plan.old_ratio;
                assert!(gain >= opts.min_graph_gain, "case {case}, round {rounds}: gain {gain}");
                rounds += 1;
                assert!(f64::from(rounds) <= bound + 1.0, "case {case}: {rounds} rounds");
                records = plan.records.clone();
                for (r, &a) in records.iter_mut().zip(&plan.assignment) {
                    r.owner = a;
                }
            }
            longest = longest.max(rounds);
        }
        // Far inside the bound: no set takes more than two rounds.
        assert_eq!(longest, 2, "the longest chain of accepted rounds");
    }

    /// Equal shares and a pool of equal speeds are the same request, spelled
    /// with different quota arithmetic (`(total / n) * (r + 1)` against
    /// `total * (r + 1) * s / (n * s)`): the set-up balancer and the pool
    /// planner must cut 200 seeded workloads at the same places.
    #[test]
    fn equal_shares_equal_a_uniform_pool() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..200 {
            let roots =
                [rng.gen_range(2..6usize), rng.gen_range(2..6usize), rng.gen_range(2..6usize)];
            let procs = rng.gen_range(2..9u32);
            let mut forest = uniform(roots, 8);
            for b in &mut forest.blocks {
                b.workload = rng.gen_range(0.5..20.0f64);
            }
            let records: Vec<BlockRecord> = forest
                .blocks
                .iter()
                .map(|b| BlockRecord {
                    id: b.id.pack(),
                    owner: 0,
                    coords: b.coords.map(|c| c as u32),
                    level: b.id.level(),
                    cost: b.workload,
                    fluid_cells: 512,
                })
                .collect();
            morton_balance(&mut forest, procs);
            let pool = RankPool::from_speeds(vec![rng.gen_range(0.5..8.0f64); procs as usize]);
            let plan = plan_rebalance_hetero(records, &pool, 0.0);
            assert_eq!(plan.method, PlanMethod::MortonSfc, "case {case}");
            assert_eq!(
                digits(plan.assignment),
                ranks(&forest),
                "case {case}: {roots:?} on {procs}"
            );
        }
    }
}
