//! The main comparison sweeps: Figs. 11/12 (performance vs node memory)
//! and Figs. 13/14 (performance vs packet generation rate), each producing
//! the paper's four panels — success rate, average delay, forwarding cost,
//! total cost — for all six methods.

use crate::experiments::ObsCell;
use crate::report::Table;
use crate::runners::{
    parallel_map, run_method_observed_sharded, run_method_with_faults_sharded, Method,
    MethodOutcome,
};
use crate::scenarios::Scenario;
use dtnflow_core::config::SimConfig;
use dtnflow_obs::Snapshot;
use dtnflow_sim::FaultPlan;

/// One sweep: x-axis points × all six methods → the four metric tables,
/// plus (when `obs`) one observability snapshot per (point, method) cell.
/// With `obs` off no sink is ever attached, so the tables are byte-for-
/// byte what the untraced sweep produces — and they must stay identical
/// with `obs` on (`csv_determinism` enforces this).
fn sweep(
    scenario: &Scenario,
    fig: &str,
    xlabel: &str,
    points: &[(String, SimConfig)],
    obs: bool,
    shards: usize,
) -> (Vec<Table>, Vec<ObsCell>) {
    // Flatten (point, method) into independent jobs.
    let jobs: Vec<(usize, Method)> = (0..points.len())
        .flat_map(|p| Method::ALL.iter().map(move |&m| (p, m)))
        .collect();
    let outcomes: Vec<(MethodOutcome, Option<Snapshot>)> = parallel_map(&jobs, |&(p, m)| {
        let cfg = &points[p].1;
        let wl = scenario.workload(cfg);
        if obs {
            let (o, snap) = run_method_observed_sharded(
                &scenario.trace,
                cfg,
                &wl,
                &FaultPlan::none(),
                m,
                shards,
            );
            (o, Some(snap))
        } else {
            (
                run_method_with_faults_sharded(
                    &scenario.trace,
                    cfg,
                    &wl,
                    &FaultPlan::none(),
                    m,
                    shards,
                ),
                None,
            )
        }
    });

    let methods: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
    let headers: Vec<&str> = std::iter::once(xlabel)
        .chain(methods.iter().copied())
        .collect();
    let panels = [
        ("a", "success rate"),
        ("b", "average delay (minutes)"),
        ("c", "forwarding cost (ops)"),
        ("d", "total cost (ops)"),
    ];
    let mut tables: Vec<Table> = panels
        .iter()
        .map(|(sub, metric)| {
            Table::new(
                format!("{fig}{sub}"),
                format!("{metric} vs {xlabel} ({})", scenario.name),
                &headers,
            )
        })
        .collect();

    for (p, (label, _)) in points.iter().enumerate() {
        let row_of = |f: &dyn Fn(&MethodOutcome) -> String| -> Vec<String> {
            std::iter::once(label.clone())
                .chain(
                    Method::ALL
                        .iter()
                        .enumerate()
                        .map(|(mi, _)| f(&outcomes[p * Method::ALL.len() + mi].0)),
                )
                .collect()
        };
        tables[0].row(row_of(&|o| format!("{:.3}", o.summary.success_rate)));
        tables[1].row(row_of(&|o| {
            format!("{:.0}", o.summary.average_delay_secs / 60.0)
        }));
        tables[2].row(row_of(&|o| o.summary.forwarding_ops.to_string()));
        tables[3].row(row_of(&|o| format!("{:.0}", o.summary.total_cost)));
    }
    let cells: Vec<ObsCell> = jobs
        .iter()
        .zip(&outcomes)
        .filter_map(|(&(p, m), (_, snap))| {
            snap.as_ref().map(|s| ObsCell {
                label: format!("{}/{}", points[p].0, m.name()),
                snapshot: s.clone(),
            })
        })
        .collect();
    (tables, cells)
}

fn memory_points(base: &SimConfig, seed: u64, quick: bool) -> Vec<(String, SimConfig)> {
    let kbs: Vec<u64> = if quick {
        vec![1_200, 2_000, 3_000]
    } else {
        (0..10).map(|i| 1_200 + 200 * i).collect()
    };
    kbs.into_iter()
        .map(|kb| {
            (
                kb.to_string(),
                base.clone().with_memory_kb(kb).with_seed(seed),
            )
        })
        .collect()
}

fn rate_points(base: &SimConfig, seed: u64, quick: bool) -> Vec<(String, SimConfig)> {
    let rates: Vec<f64> = if quick {
        vec![100.0, 500.0, 1_000.0]
    } else {
        (1..=10).map(|i| 100.0 * i as f64).collect()
    };
    rates
        .into_iter()
        .map(|r| {
            (
                format!("{r:.0}"),
                base.clone().with_packet_rate(r).with_seed(seed),
            )
        })
        .collect()
}

fn memory_campus(quick: bool, obs: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    let s = Scenario::campus();
    let pts = memory_points(&s.base_cfg, 0xF11, quick);
    sweep(&s, "fig11", "memory (kB)", &pts, obs, shards)
}

fn memory_bus(quick: bool, obs: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    let s = Scenario::bus();
    let pts = memory_points(&s.base_cfg, 0xF12, quick);
    sweep(&s, "fig12", "memory (kB)", &pts, obs, shards)
}

fn rate_campus(quick: bool, obs: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    let s = Scenario::campus();
    let pts = rate_points(&s.base_cfg, 0xF13, quick);
    sweep(&s, "fig13", "packets/landmark/day", &pts, obs, shards)
}

fn rate_bus(quick: bool, obs: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    let s = Scenario::bus();
    let pts = rate_points(&s.base_cfg, 0xF14, quick);
    sweep(&s, "fig14", "packets/landmark/day", &pts, obs, shards)
}

/// Fig. 11: campus, memory 1200..=3000 kB, rate 500.
pub fn memory_sweep_campus(quick: bool) -> Vec<Table> {
    memory_campus(quick, false, 1).0
}

/// Fig. 11 under a shard runtime; byte-identical for every shard count.
pub fn memory_sweep_campus_sharded(quick: bool, shards: usize) -> Vec<Table> {
    memory_campus(quick, false, shards).0
}

/// Fig. 11 with per-cell observability snapshots.
pub fn memory_sweep_campus_obs(quick: bool) -> (Vec<Table>, Vec<ObsCell>) {
    memory_campus(quick, true, 1)
}

/// Fig. 11 with snapshots, under a shard runtime. Tables and snapshots
/// are byte-identical for every shard count (`shard_differential` suite).
pub fn memory_sweep_campus_obs_sharded(quick: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    memory_campus(quick, true, shards)
}

/// Fig. 12: bus, memory 1200..=3000 kB, rate 500.
pub fn memory_sweep_bus(quick: bool) -> Vec<Table> {
    memory_bus(quick, false, 1).0
}

/// Fig. 12 under a shard runtime; byte-identical for every shard count.
pub fn memory_sweep_bus_sharded(quick: bool, shards: usize) -> Vec<Table> {
    memory_bus(quick, false, shards).0
}

/// Fig. 12 with per-cell observability snapshots.
pub fn memory_sweep_bus_obs(quick: bool) -> (Vec<Table>, Vec<ObsCell>) {
    memory_bus(quick, true, 1)
}

/// Fig. 12 with snapshots, under a shard runtime.
pub fn memory_sweep_bus_obs_sharded(quick: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    memory_bus(quick, true, shards)
}

/// Fig. 13: campus, rate 100..=1000, memory 2000 kB.
pub fn rate_sweep_campus(quick: bool) -> Vec<Table> {
    rate_campus(quick, false, 1).0
}

/// Fig. 13 under a shard runtime; byte-identical for every shard count.
pub fn rate_sweep_campus_sharded(quick: bool, shards: usize) -> Vec<Table> {
    rate_campus(quick, false, shards).0
}

/// Fig. 13 with per-cell observability snapshots.
pub fn rate_sweep_campus_obs(quick: bool) -> (Vec<Table>, Vec<ObsCell>) {
    rate_campus(quick, true, 1)
}

/// Fig. 13 with snapshots, under a shard runtime.
pub fn rate_sweep_campus_obs_sharded(quick: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    rate_campus(quick, true, shards)
}

/// Fig. 14: bus, rate 100..=1000, memory 2000 kB.
pub fn rate_sweep_bus(quick: bool) -> Vec<Table> {
    rate_bus(quick, false, 1).0
}

/// Fig. 14 under a shard runtime; byte-identical for every shard count.
pub fn rate_sweep_bus_sharded(quick: bool, shards: usize) -> Vec<Table> {
    rate_bus(quick, false, shards).0
}

/// Fig. 14 with per-cell observability snapshots.
pub fn rate_sweep_bus_obs(quick: bool) -> (Vec<Table>, Vec<ObsCell>) {
    rate_bus(quick, true, 1)
}

/// Fig. 14 with snapshots, under a shard runtime.
pub fn rate_sweep_bus_obs_sharded(quick: bool, shards: usize) -> (Vec<Table>, Vec<ObsCell>) {
    rate_bus(quick, true, shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A light end-to-end run of the sweep machinery on the bus scenario
    /// (full fig12/fig14 runs are exercised by the experiments binary).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "full simulation; run with --release")]
    fn quick_bus_memory_sweep_has_paper_shape() {
        let tables = memory_sweep_bus(true);
        assert_eq!(tables.len(), 4);
        let succ = &tables[0];
        assert_eq!(succ.len(), 3);
        let flow_col = succ.column("DTN-FLOW").unwrap();
        for r in 0..succ.len() {
            let flow: f64 = succ.cell(r, flow_col).parse().unwrap();
            // DTN-FLOW delivers most packets at every memory point.
            assert!(flow > 0.5, "row {r}: flow {flow}");
            // And beats every baseline at the smallest memory.
            if r == 0 {
                for m in 2..=6 {
                    let other: f64 = succ.cell(r, m).parse().unwrap();
                    assert!(flow > other, "flow {flow} vs col {m} {other}");
                }
            }
        }
    }
}
