//! Acceptance tests for the checker itself.
//!
//! * The full check run explores ≥ 1,000 distinct schedules of
//!   `hybrid_update_pooled` — including both `PanicAfter` and `DisconnectAfter`
//!   recovery paths — with bitwise parity at every terminal state.
//! * The deliberately seeded lost-send ordering bug is caught by
//!   exploration, greedily shrunk, and reproduced from its schedule token.

use std::collections::HashSet;

use dos_check::explore::ExploreConfig;
use dos_check::scenarios::{CheckScenario, FaultPlan};
use dos_check::token::ScheduleToken;
use dos_check::{check_scenario, replay_token, run_check, CheckOptions, DEFAULT_MAX_STEPS};

#[test]
fn full_check_run_clears_a_thousand_distinct_schedules() {
    let opts = CheckOptions {
        schedules: 1_000,
        fuzz: 8,
        seed: 7,
        corpus_dir: None,
        scenario_filter: None,
    };
    let report = run_check(&opts).unwrap();
    assert!(report.passed, "check failed:\n{}", report.render_human());
    assert!(
        report.distinct_total >= 1_000,
        "only {} distinct schedules explored",
        report.distinct_total
    );

    // Both fault-recovery paths contributed schedules of their own.
    let suite = CheckScenario::default_suite();
    let fault_covered = |pred: fn(FaultPlan) -> bool| {
        report
            .scenarios
            .iter()
            .zip(&suite)
            .filter(|(_, sc)| pred(sc.fault))
            .map(|(r, _)| r.completed)
            .sum::<usize>()
    };
    assert!(fault_covered(|f| matches!(f, FaultPlan::Panic(_))) > 0, "no PanicAfter coverage");
    assert!(
        fault_covered(|f| matches!(f, FaultPlan::Disconnect(_))) > 0,
        "no DisconnectAfter coverage"
    );
    assert!(report.fuzz.failures.is_empty(), "fuzz arm diverged");
}

#[test]
fn seeded_ordering_bug_is_caught_shrunk_and_replayed_by_token() {
    let sc = CheckScenario::seeded_bug();
    let cfg = ExploreConfig {
        dfs_budget: 2_000,
        random_walks: 200,
        seed: 1,
        max_steps: DEFAULT_MAX_STEPS,
    };
    let mut seen = HashSet::new();
    let report = check_scenario(&sc, &cfg, 0xb06, &mut seen);
    let failure = report.failure.expect("exploration missed the seeded lost-send bug");
    assert!(
        failure.message.contains("divergence"),
        "expected a divergence, got: {}",
        failure.message
    );

    // The shrunk schedule is strictly shorter than trivial noise and still
    // reproduces via its token alone.
    let shrunk = ScheduleToken::parse(&failure.shrunk_token).unwrap();
    let found = ScheduleToken::parse(&failure.token).unwrap();
    assert!(shrunk.schedule.len() <= found.schedule.len());
    let reproduced = replay_token(&failure.shrunk_token)
        .expect("shrunk token failed to parse")
        .expect("shrunk token did not reproduce the failure");
    assert!(reproduced.contains("divergence"), "unexpected reproduction: {reproduced}");

    // And the original (unshrunk) token reproduces too.
    assert!(replay_token(&failure.token).unwrap().is_some());
}

#[test]
fn rendezvous_scenarios_clear_five_hundred_distinct_schedules() {
    // The blocking-mode collective rendezvous (barrier + all-reduce
    // rounds + gather over the in-process mesh, healthy and with a
    // mid-run rank disconnect) must clear 500+ distinct schedules with no
    // deadlock and bitwise parity at every terminal state. A hang here
    // would surface as a detected deadlock, not a stuck test.
    let suite = CheckScenario::rendezvous_suite();
    let mut seen = HashSet::new();
    let mut round = 0usize;
    while seen.len() < 500 && round < 40 {
        for (i, sc) in suite.iter().enumerate() {
            let cfg = ExploreConfig {
                dfs_budget: if round == 0 { 64 } else { 0 },
                random_walks: 64,
                seed: xr_dv_seed(round, i),
                max_steps: DEFAULT_MAX_STEPS,
            };
            let report = check_scenario(sc, &cfg, i as u64, &mut seen);
            assert!(
                report.failure.is_none(),
                "{} failed: {:?}",
                sc.encode(),
                report.failure
            );
        }
        round += 1;
    }
    assert!(seen.len() >= 500, "only {} distinct rendezvous schedules", seen.len());
}

fn xr_dv_seed(round: usize, i: usize) -> u64 {
    (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64)
}

#[test]
fn coordinator_scenarios_clear_two_hundred_distinct_schedules() {
    // The multi-tenant serve coordinator (two submitter threads racing
    // into the intake channel, one-GPU cluster, preemption between
    // slices) must clear 200+ distinct schedules with no lost job, no
    // double-granted lease, and bitwise-identical per-tenant numerics at
    // every terminal state.
    let suite = CheckScenario::coordinator_suite();
    let mut seen = HashSet::new();
    let mut round = 0usize;
    while seen.len() < 200 && round < 40 {
        for (i, sc) in suite.iter().enumerate() {
            let cfg = ExploreConfig {
                dfs_budget: if round == 0 { 48 } else { 0 },
                random_walks: 48,
                seed: xr_dv_seed(round, i).wrapping_add(0xc0),
                max_steps: DEFAULT_MAX_STEPS,
            };
            let report = check_scenario(sc, &cfg, 100 + i as u64, &mut seen);
            assert!(
                report.failure.is_none(),
                "{} failed: {:?}",
                sc.encode(),
                report.failure
            );
        }
        round += 1;
    }
    assert!(seen.len() >= 200, "only {} distinct coordinator schedules", seen.len());
}

#[test]
fn zenflow_scenarios_clear_a_thousand_distinct_schedules() {
    // The ZenFlow cross-iteration bodies (hot synchronous updates racing
    // detached cold-flush workers across step boundaries, harvested at
    // `poll_pending` yield points) must clear 1,000+ distinct schedules
    // with the staleness bound held and bitwise parity against the
    // sequential bounded-staleness oracle at every terminal state. Runs
    // through `run_check` with the scenario prefix filter, which is
    // exactly what the CI smoke invokes via `dos-cli check --scenario zf`.
    let opts = CheckOptions {
        schedules: 1_000,
        fuzz: 0,
        seed: 11,
        corpus_dir: None,
        scenario_filter: Some("zf".to_string()),
    };
    let report = run_check(&opts).unwrap();
    assert!(report.passed, "zenflow check failed:\n{}", report.render_human());
    assert!(
        report.distinct_total >= 1_000,
        "only {} distinct zenflow schedules explored",
        report.distinct_total
    );
    assert_eq!(report.scenarios.len(), CheckScenario::zenflow_suite().len());
    assert!(report.scenarios.iter().all(|s| s.scenario.starts_with("zf-")));
}

#[test]
fn scenario_filter_rejects_a_prefix_matching_nothing() {
    let opts = CheckOptions {
        schedules: 16,
        fuzz: 0,
        seed: 0,
        corpus_dir: None,
        scenario_filter: Some("nope".to_string()),
    };
    assert!(run_check(&opts).is_err());
}

#[test]
fn replay_token_rejects_garbage() {
    assert!(replay_token("not-a-token").is_err());
    assert!(replay_token("dc1:pl-p48-g8-k2-r0:00").is_err()); // 5-field scenario
    assert!(replay_token("dc1:zz-p48-g8-k2-r0-fn:00").is_err()); // unknown kind
}

#[test]
fn healthy_token_replays_clean() {
    let sc = CheckScenario::default_suite()[0];
    let token = ScheduleToken::new(&sc.encode(), &[]).render();
    assert_eq!(replay_token(&token).unwrap(), None);
}
