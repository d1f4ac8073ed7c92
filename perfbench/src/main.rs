//! The repository benchmark: end-to-end and per-layer timings of three
//! single-threaded campus workloads. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <flow-rate|baselines|flow-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then repeats
//! untraced passes over the workload's cells for `--seconds` and reports
//! medians. With `--trace 1` it makes one untraced and one traced pass
//! and reports the per-layer split. Either way the last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod timed;

use dtnflow_bench::chaos::{
    canonicalize_obs, checkpoint, outage_plan, run_straight, run_with_kills, ChaosInputs,
    RunArtifacts, SECTIONS,
};
use dtnflow_bench::timing::Stopwatch;
use dtnflow_bench::{Method, Scenario};
use dtnflow_core::config::SimConfig;
use dtnflow_mobility::Trace;
use dtnflow_obs::{Recorder, SimEvent, DEFAULT_RING_CAPACITY};
use dtnflow_router::{FlowConfig, FlowRouter};
use dtnflow_sim::{
    run_traced_sharded, run_with_faults_sharded, DispatchMode, FaultPlan, Router, ShardExec,
    ShardPlan, SimOutcome, SimSession, Workload,
};
use dtnflow_snapshot::{fnv1a64, validate_schema, Reader, SnapshotError, SnapshotFile, Writer};
use std::process::ExitCode;
use timed::{Kind, Profile, Timed};

/// Node memory of every cell (the fig11 2000 kB point).
const MEMORY_KB: u64 = 2_000;
/// Packets per landmark per day of the single-rate cells.
const RATE: f64 = 500.0;
/// The `flow-rate` sweep.
const FLOW_RATES: [f64; 3] = [100.0, 500.0, 1_000.0];
/// The `baselines` methods, in the paper's legend order.
const BASELINES: [Method; 5] = [
    Method::SimBet,
    Method::Prophet,
    Method::Pgr,
    Method::GeoComm,
    Method::Per,
];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Seed of the `flow-chaos` outage schedule. Fixed like the trace, so
/// that `--seed` varies only the packet stream: a different schedule
/// moves DTN-FLOW's degraded-mode work by more than the wall-time bound.
const OUTAGE_SEED: u64 = 0xF11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadId {
    FlowRate,
    Baselines,
    FlowChaos,
}

impl WorkloadId {
    const ALL: [WorkloadId; 3] = [
        WorkloadId::FlowRate,
        WorkloadId::Baselines,
        WorkloadId::FlowChaos,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadId::FlowRate => "flow-rate",
            WorkloadId::Baselines => "baselines",
            WorkloadId::FlowChaos => "flow-chaos",
        }
    }
}

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0xF11),
        seconds: seconds.unwrap_or(35.0),
        trace: trace.unwrap_or(false),
    })
}

// ---------------------------------------------------------------- set-up

/// One simulation cell of a plain (non-chaos) workload.
struct Cell {
    label: String,
    method: Method,
    cfg: SimConfig,
    workload: Workload,
}

enum Setup {
    /// Independent cells over one trace, no faults.
    Plain { trace: Trace, cells: Vec<Cell> },
    /// Degraded DTN-FLOW under station outages, killed and restored at
    /// the `kills` unit boundaries.
    Chaos {
        inp: Box<ChaosInputs>,
        kills: [u64; 2],
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    trace_gen: f64,
    workload_gen: f64,
    router_build: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.trace_gen + self.workload_gen + self.router_build
    }
}

fn set_up(w: WorkloadId, seed: u64) -> (Setup, SetupTimes) {
    let mut t = SetupTimes::default();
    let sw = Stopwatch::start();
    let scenario = Scenario::campus();
    t.trace_gen = sw.elapsed_secs();
    let cfg_at = |rate: f64| {
        scenario
            .base_cfg
            .clone()
            .with_memory_kb(MEMORY_KB)
            .with_packet_rate(rate)
            .with_seed(seed)
    };
    let (n, l) = (scenario.trace.num_nodes(), scenario.trace.num_landmarks());
    let setup = match w {
        WorkloadId::FlowRate | WorkloadId::Baselines => {
            let specs: Vec<(Method, f64)> = match w {
                WorkloadId::FlowRate => FLOW_RATES.iter().map(|&r| (Method::Flow, r)).collect(),
                _ => BASELINES.iter().map(|&m| (m, RATE)).collect(),
            };
            let sw = Stopwatch::start();
            let cells: Vec<Cell> = specs
                .into_iter()
                .map(|(method, rate)| {
                    let cfg = cfg_at(rate);
                    let workload = scenario.workload(&cfg);
                    Cell {
                        label: format!("{}/{}", method.name(), rate),
                        method,
                        cfg,
                        workload,
                    }
                })
                .collect();
            t.workload_gen = sw.elapsed_secs();
            let sw = Stopwatch::start();
            let routers = build_routers(&cells, n, l);
            t.router_build = sw.elapsed_secs();
            drop(routers);
            Setup::Plain {
                trace: scenario.trace,
                cells,
            }
        }
        WorkloadId::FlowChaos => {
            let cfg = cfg_at(RATE);
            let sw = Stopwatch::start();
            let workload = scenario.workload(&cfg);
            let plan = outage_plan(&scenario.trace, cfg.time_unit.secs(), OUTAGE_SEED);
            t.workload_gen = sw.elapsed_secs();
            let sw = Stopwatch::start();
            let flow = FlowConfig::with_degradation();
            drop(FlowRouter::new(flow.clone(), n, l));
            t.router_build = sw.elapsed_secs();
            let inp = Box::new(ChaosInputs {
                trace: scenario.trace,
                cfg,
                flow,
                workload,
                plan,
                shards: 1,
                dispatch: DispatchMode::default(),
            });
            let m = inp.max_unit();
            Setup::Chaos {
                inp,
                kills: [m / 4, 3 * m / 4],
            }
        }
    };
    (setup, t)
}

fn build_routers(cells: &[Cell], n: usize, l: usize) -> Vec<Box<dyn Router>> {
    cells.iter().map(|c| c.method.build(n, l)).collect()
}

// ------------------------------------------------------------- outcomes

/// Canonical bytes of a finished run: `RunMetrics` plus every packet, in
/// the encoding the chaos harness compares lineages by.
pub(crate) fn outcome_state(out: &SimOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    out.metrics.encode(&mut w);
    w.put_usize(out.packets.len());
    for p in &out.packets {
        p.encode(&mut w);
    }
    w.into_bytes()
}

/// What one cell produced, reduced to what the checks compare.
struct CellOutcome {
    label: String,
    generated: u64,
    delivered: u64,
    success_rate: f64,
    forwarding_ops: u64,
    conserved: bool,
    /// FNV-1a of [`outcome_state`].
    digest: u64,
    /// Canonical obs report, for runs with a recorder attached.
    obs_json: String,
}

impl CellOutcome {
    fn of_run(label: &str, out: &SimOutcome) -> CellOutcome {
        let m = &out.metrics;
        let live = out.packets.iter().filter(|p| p.loc.is_live()).count() as u64;
        let s = m.summary();
        CellOutcome {
            label: label.to_owned(),
            generated: m.generated,
            delivered: m.delivered,
            success_rate: s.success_rate,
            forwarding_ops: s.forwarding_ops,
            conserved: m.generated
                == m.delivered + m.expired + m.lost_to_outage + m.lost_to_churn + live,
            digest: fnv1a64(&outcome_state(out)),
            obs_json: String::new(),
        }
    }

    fn of_artifacts(label: &str, a: &RunArtifacts) -> CellOutcome {
        let mut r = Reader::new(&a.state);
        let summary = dtnflow_core::metrics::RunMetrics::decode(&mut r)
            .expect("run artifacts start with the encoded metrics")
            .summary();
        CellOutcome {
            label: label.to_owned(),
            generated: a.generated,
            delivered: a.delivered,
            success_rate: summary.success_rate,
            forwarding_ops: summary.forwarding_ops,
            conserved: a.conservation_holds(),
            digest: fnv1a64(&a.state),
            obs_json: a.obs_json.clone(),
        }
    }

    /// Take the run's recorder and keep its canonical report. Returns
    /// the recorder's raw recorded and dropped event counts.
    fn take_obs(&mut self, out: &mut SimOutcome) -> (u64, u64) {
        let Some(snap) = out
            .trace
            .take()
            .and_then(Recorder::downcast)
            .map(|r| r.snapshot())
        else {
            return (0, 0);
        };
        let counts = (snap.events_recorded, snap.events_dropped);
        self.obs_json = canonicalize_obs(snap).to_json();
        counts
    }

    /// Same simulated result: every statistic, packet and obs event.
    fn same_run(&self, other: &CellOutcome) -> bool {
        self.digest == other.digest && self.obs_json == other.obs_json
    }

    fn print(&self, tag: &str) {
        println!(
            "cell {tag} {} success={:.6} delivered={} generated={} fwd_ops={} conserved={} digest={:016x}",
            self.label,
            self.success_rate,
            self.delivered,
            self.generated,
            self.forwarding_ops,
            self.conserved,
            self.digest
        );
    }
}

/// Running tally of per-cell correctness checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Conservation, plus agreement with `reference` when there is one.
    fn cell(&mut self, c: &CellOutcome, reference: Option<&CellOutcome>, what: &str) {
        let agrees = reference.is_none_or(|r| r.same_run(c));
        self.check(
            c.conserved && agrees,
            &format!(
                "{} ({what}): conserved={} agrees={agrees}",
                c.label, c.conserved
            ),
        );
    }
}

// --------------------------------------------------------------- passes

/// One untraced pass: host seconds spent simulating, packets generated,
/// and each cell's outcome.
struct Pass {
    wall: f64,
    generated: u64,
    cells: Vec<CellOutcome>,
}

/// Run one plain cell; returns its host seconds and outcome.
fn run_cell(trace: &Trace, cell: &Cell, router: &mut dyn Router) -> (f64, SimOutcome) {
    let sw = Stopwatch::start();
    let out = run_with_faults_sharded(
        trace,
        &cell.cfg,
        &cell.workload,
        &FaultPlan::none(),
        router,
        1,
    );
    (sw.elapsed_secs(), out)
}

/// A chaos cell's two runs: the uninterrupted one and the lineage killed
/// and restored at `kills`, through the chaos harness, with their host
/// seconds.
fn run_chaos(
    inp: &ChaosInputs,
    kills: &[u64],
) -> Result<([f64; 2], [CellOutcome; 2]), SnapshotError> {
    let sw = Stopwatch::start();
    let straight = run_straight(inp)?;
    let straight_wall = sw.elapsed_secs();
    let sw = Stopwatch::start();
    let (lineage, _) = run_with_kills(inp, kills)?;
    Ok((
        [straight_wall, sw.elapsed_secs()],
        [
            CellOutcome::of_artifacts("DTN-FLOW/chaos-straight", &straight),
            CellOutcome::of_artifacts("DTN-FLOW/chaos-lineage", &lineage),
        ],
    ))
}

fn untraced_pass(setup: &Setup) -> Result<Pass, SnapshotError> {
    let mut pass = Pass {
        wall: 0.0,
        generated: 0,
        cells: Vec::new(),
    };
    match setup {
        Setup::Plain { trace, cells } => {
            let mut routers = build_routers(cells, trace.num_nodes(), trace.num_landmarks());
            for (cell, router) in cells.iter().zip(routers.iter_mut()) {
                let (wall, out) = run_cell(trace, cell, router.as_mut());
                pass.wall += wall;
                pass.generated += out.metrics.generated;
                pass.cells.push(CellOutcome::of_run(&cell.label, &out));
            }
        }
        Setup::Chaos { inp, kills } => {
            let (walls, cells) = run_chaos(inp, kills)?;
            pass.wall = walls[0] + walls[1];
            pass.generated = cells[0].generated + cells[1].generated;
            pass.cells = cells.into();
        }
    }
    Ok(pass)
}

/// Checks of one untraced pass: conservation in every cell, agreement
/// with the first pass, and (chaos) lineage == uninterrupted run.
fn check_pass(checks: &mut Checks, pass: &Pass, first: Option<&Pass>, chaos: bool) {
    for (i, c) in pass.cells.iter().enumerate() {
        let reference = match (first, chaos && i == 1) {
            (_, true) => Some(&pass.cells[0]),
            (Some(f), false) => f.cells.get(i),
            (None, false) => None,
        };
        checks.cell(c, reference, "untraced pass");
    }
}

// ---------------------------------------------------------- traced pass

/// Per-layer results of the traced run.
#[derive(Default)]
struct Layers {
    /// DTN-FLOW callbacks, all cells.
    flow: Profile,
    /// Baseline callbacks, all cells, plus each method's callback time.
    baselines: Profile,
    per_method: Vec<(Method, f64)>,
    /// Host seconds of the decorated cells.
    decorated_wall: f64,
    /// Host seconds of the whole traced pass, and of the same cells
    /// untraced.
    traced_wall: f64,
    untraced_wall: f64,
    encode_s: f64,
    decode_s: f64,
    snapshot_bytes: u64,
    events_recorded: u64,
    events_dropped: u64,
    record_s: f64,
}

impl Layers {
    /// Add one decorated cell's profile; print it beside the same cell's
    /// untraced host seconds.
    fn charge(&mut self, method: Method, p: &Profile, wall: f64, untraced: f64, label: &str) {
        self.decorated_wall += wall;
        if method == Method::Flow {
            self.flow.add(p);
        } else {
            self.baselines.add(p);
            self.per_method.push((method, p.total_secs()));
        }
        let share = |k: Kind| 100.0 * p.secs(k) / wall;
        println!(
            "profile {label} untraced_s={untraced:.4} wall_s={wall:.4} callbacks_s={:.4} engine_s={:.4} {}",
            p.total_secs(),
            wall - p.total_secs(),
            Kind::ALL
                .iter()
                .filter(|&&k| p.calls(k) > 0)
                .map(|&k| format!("{}={}/{:.1}%", k.name(), p.calls(k), share(k)))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

/// Each cell untraced, then decorated; the two must agree.
fn traced_plain(trace: &Trace, cells: &[Cell], checks: &mut Checks) -> Layers {
    let mut layers = Layers::default();
    let (n, l) = (trace.num_nodes(), trace.num_landmarks());
    for cell in cells {
        let mut bare = cell.method.build(n, l);
        let (wall, out) = run_cell(trace, cell, bare.as_mut());
        layers.untraced_wall += wall;
        let untraced_wall = wall;
        let untraced = CellOutcome::of_run(&cell.label, &out);
        untraced.print("untraced");
        drop(out);

        let mut inner = cell.method.build(n, l);
        let mut timed = Timed::new(inner.as_mut());
        let (wall, out) = run_cell(trace, cell, &mut timed);
        let p = timed.into_profile();
        layers.charge(cell.method, &p, wall, untraced_wall, &cell.label);
        layers.traced_wall += wall;
        let c = CellOutcome::of_run(&cell.label, &out);
        checks.cell(&untraced, None, "untraced");
        checks.cell(&c, Some(&untraced), "traced vs untraced");
    }
    layers
}

/// The chaos runs untraced, then traced: the uninterrupted run decorated
/// and recorded, the lineage with its snapshot calls timed, and the
/// uninterrupted run once more with no sink, for the recorder's cost.
fn traced_chaos(
    inp: &ChaosInputs,
    kills: &[u64],
    checks: &mut Checks,
) -> Result<Layers, SnapshotError> {
    let mut layers = Layers::default();
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    let (walls, [straight, lineage]) = run_chaos(inp, kills)?;
    layers.untraced_wall = walls[0] + walls[1];
    straight.print("untraced");
    checks.cell(&straight, None, "untraced");
    checks.cell(
        &lineage,
        Some(&straight),
        "untraced lineage vs uninterrupted",
    );

    let mut router = FlowRouter::new(inp.flow.clone(), n, l);
    let mut timed = Timed::new(&mut router);
    let sw = Stopwatch::start();
    let mut out = run_traced_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut timed,
        Box::new(Recorder::new(DEFAULT_RING_CAPACITY)),
        1,
    );
    let wall = sw.elapsed_secs();
    let p = timed.into_profile();
    layers.charge(Method::Flow, &p, wall, walls[0], &straight.label);
    let mut c = CellOutcome::of_run(&straight.label, &out);
    (layers.events_recorded, layers.events_dropped) = c.take_obs(&mut out);
    checks.cell(&c, Some(&straight), "traced vs untraced");
    drop(out);

    let sw = Stopwatch::start();
    let mut out = traced_lineage(inp, kills, &mut layers)?;
    let lineage_wall = sw.elapsed_secs();
    layers.traced_wall = wall + lineage_wall;
    println!(
        "profile {} untraced_s={:.4} wall_s={lineage_wall:.4} encode_s={:.4} decode_s={:.4} snapshot_bytes={}",
        lineage.label, walls[1], layers.encode_s, layers.decode_s, layers.snapshot_bytes
    );
    let mut c = CellOutcome::of_run(&lineage.label, &out);
    c.take_obs(&mut out);
    checks.cell(&c, Some(&straight), "traced lineage vs uninterrupted");
    drop(out);

    let mut router = FlowRouter::new(inp.flow.clone(), n, l);
    let sw = Stopwatch::start();
    let out = run_with_faults_sharded(
        &inp.trace,
        &inp.cfg,
        &inp.workload,
        &inp.plan,
        &mut router,
        1,
    );
    layers.record_s = walls[0] - sw.elapsed_secs();
    let c = CellOutcome::of_run("DTN-FLOW/chaos-nosink", &out);
    checks.check(
        c.conserved && c.digest == straight.digest,
        "DTN-FLOW/chaos-nosink: the run without a sink differs from the recorded one",
    );
    Ok(layers)
}

/// [`run_with_kills`], driven by hand so that the snapshot codec's calls
/// can be timed: `checkpoint` (encode) and parse + `restore_state` +
/// `resume_sharded` (decode). Restores exactly as the chaos harness does.
fn traced_lineage(
    inp: &ChaosInputs,
    kills: &[u64],
    layers: &mut Layers,
) -> Result<SimOutcome, SnapshotError> {
    let (n, l) = (inp.trace.num_nodes(), inp.trace.num_landmarks());
    let mut snap: Option<(u64, Vec<u8>)> = None;
    for i in 0..=kills.len() {
        let sw = Stopwatch::start();
        let file = match &snap {
            Some((_, bytes)) => {
                let f = SnapshotFile::parse(bytes)?;
                validate_schema(&f, &SECTIONS)?;
                Some(f)
            }
            None => None,
        };
        let mut router = match &file {
            Some(f) => {
                let mut rr = Reader::new(&f.section("router")?.payload);
                let r = FlowRouter::restore_state(&mut rr, inp.flow.clone(), n, l)?;
                rr.finish("router")?;
                r
            }
            None => FlowRouter::new(inp.flow.clone(), n, l),
        };
        let (plan, exec) = (ShardPlan::single(l), ShardExec::sequential());
        let mut session = match (&file, &snap) {
            (Some(f), Some((unit, bytes))) => {
                let mut or = Reader::new(&f.section("obs")?.payload);
                let rec = Recorder::decode(&mut or)?;
                or.finish("obs")?;
                let mut er = Reader::new(&f.section("engine")?.payload);
                let mut wr = Reader::new(&f.section("world")?.payload);
                let mut s = SimSession::resume_sharded(
                    &inp.trace,
                    &inp.cfg,
                    &inp.workload,
                    &inp.plan,
                    &mut router,
                    Some(Box::new(rec)),
                    &mut er,
                    &mut wr,
                    plan,
                    exec,
                )?;
                er.finish("engine")?;
                wr.finish("world")?;
                let (unit, total) = (*unit, bytes.len() as u64);
                s.emit(|at| SimEvent::Restored {
                    at,
                    unit,
                    bytes: total,
                });
                layers.decode_s += sw.elapsed_secs();
                s
            }
            _ => SimSession::start_sharded(
                &inp.trace,
                &inp.cfg,
                &inp.workload,
                &inp.plan,
                &mut router,
                Some(Box::new(Recorder::new(DEFAULT_RING_CAPACITY))),
                plan,
                exec,
            ),
        };
        let Some(&unit) = kills.get(i) else {
            session.run_to_end();
            return Ok(session.finish());
        };
        if !session.run_to_unit(unit) {
            return Err(SnapshotError::Corrupt {
                context: "perfbench: the run ended before a kill point",
            });
        }
        let sw = Stopwatch::start();
        let bytes = checkpoint(&mut session, inp, unit);
        layers.encode_s += sw.elapsed_secs();
        layers.snapshot_bytes += bytes.len() as u64;
        snap = Some((unit, bytes));
    }
    unreachable!("the segment after the last kill runs to the end")
}

// --------------------------------------------------------------- report

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(name)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `calls`, `self_s` and `us_per_call` of one callback kind.
    fn callbacks(&mut self, layer: &str, p: &Profile, k: Kind) {
        let (calls, secs) = (p.calls(k), p.secs(k));
        let n = k.name();
        self.put(format!("{layer}.{n}.calls"), calls as f64, "count");
        self.put(format!("{layer}.{n}.self_s"), secs, "s");
        self.put(
            format!("{layer}.{n}.us_per_call"),
            ratio(secs * 1e6, calls as f64),
            "us",
        );
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn layer_metrics(setup: &SetupTimes, layers: &Layers) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.put("mobility.trace_gen_s", setup.trace_gen, "s");
    m.put("sim.workload_gen_s", setup.workload_gen, "s");
    m.put("router.build_s", setup.router_build, "s");
    for k in [
        Kind::Arrive,
        Kind::Depart,
        Kind::Generate,
        Kind::Unit,
        Kind::Timer,
        Kind::Fault,
    ] {
        m.callbacks("dtnflow", &layers.flow, k);
    }
    for k in [Kind::Encounter, Kind::Arrive, Kind::Generate] {
        m.callbacks("baselines", &layers.baselines, k);
    }
    for b in BASELINES {
        let secs = layers
            .per_method
            .iter()
            .filter(|(mm, _)| *mm == b)
            .fold(0.0, |acc, (_, s)| acc + s);
        m.put(
            format!("baselines.{}.self_s", b.name().to_lowercase()),
            secs,
            "s",
        );
    }
    let events = layers.flow.total_calls() + layers.baselines.total_calls();
    let engine_s = layers.decorated_wall - layers.flow.total_secs() - layers.baselines.total_secs();
    m.put("sim.events", events as f64, "count");
    m.put("sim.engine_self_s", engine_s, "s");
    m.put(
        "sim.engine_ns_per_event",
        ratio(engine_s * 1e9, events as f64),
        "ns",
    );
    m.put("snapshot.encode_s", layers.encode_s, "s");
    m.put("snapshot.decode_s", layers.decode_s, "s");
    m.put("snapshot.bytes", layers.snapshot_bytes as f64, "bytes");
    m.put(
        "obs.events_recorded",
        layers.events_recorded as f64,
        "count",
    );
    m.put("obs.events_dropped", layers.events_dropped as f64, "count");
    m.put("obs.record_s", layers.record_s, "s");
    m.put(
        "trace.overhead_s",
        layers.traced_wall - layers.untraced_wall,
        "s",
    );
    m
}

// ----------------------------------------------------------------- main

/// Runs the benchmark; returns the checks, the metrics and the host
/// seconds of every untraced pass.
fn run(args: &Args) -> Result<(Checks, Metrics, Vec<f64>), SnapshotError> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        let (s, t) = set_up(args.workload, args.seed);
        setups.push(t);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        trace_gen: med(|t| t.trace_gen),
        workload_gen: med(|t| t.workload_gen),
        router_build: med(|t| t.router_build),
    };
    let setup_s = med(SetupTimes::total);
    let chaos = matches!(setup, Setup::Chaos { .. });
    let mut checks = Checks::default();

    if args.trace {
        let layers = match &setup {
            Setup::Plain { trace, cells } => traced_plain(trace, cells, &mut checks),
            Setup::Chaos { inp, kills } => traced_chaos(inp, kills, &mut checks)?,
        };
        let m = layer_metrics(&times, &layers);
        return Ok((checks, m, vec![layers.untraced_wall]));
    }

    let sw = Stopwatch::start();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = untraced_pass(&setup)?;
        check_pass(&mut checks, &pass, passes.first(), chaos);
        if passes.is_empty() {
            pass.cells.iter().for_each(|c| c.print("untraced"));
        }
        passes.push(pass);
        // Start another pass only if it is expected to end in time.
        let elapsed = sw.elapsed_secs();
        if elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let wall_s = median(&walls);
    let mut m = Metrics(Vec::new());
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", wall_s, "s");
    m.put(
        "packets_per_s",
        ratio(passes[0].generated as f64, wall_s),
        "1/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok((checks, m, walls))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <flow-rate|baselines|flow-chaos> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (checks, metrics, walls) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: snapshot error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run workload={} seed={} trace={} host_cores={cores} git={} setups={SETUPS} passes={} pass_walls_s={walls:.4?} fail_ratio={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        git_revision(),
        walls.len(),
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
