//! The four workloads and the run that measures one of them.
//!
//! Every run has the same skeleton, so every metric exists on every
//! workload: **set up** a data directory (provision + seeded load, three
//! times, median), **boot** the stack from it (open → every channel
//! activated and checked, several times, median), drive the **timed
//! phase**, **check** every channel against what was acked, and **restart**
//! once more to check that what was acked is there. The workloads differ
//! in fleet, fsync policy and request mix — and the `restart-recover`
//! workload spends its timed phase on boot cycles.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aodb_runtime::RuntimeMetricsSnapshot;
use aodb_shm::{Topology, TopologySpec};
use aodb_store::tseries::SeriesStore;
use aodb_store::{FsyncPolicy, Key, StateStore, WalStatsSnapshot};

use crate::gen::{prefill_counts, Client, Mix, OpStream, PhaseStats};
use crate::layers;
use crate::signal::BATCH_POINTS;
use crate::stats::{alternating_rates, median, windowed_rate, Sorted};
use crate::system::{
    copy_dir, dir_bytes, Fingerprint, FleetLayout, OpenTimings, Stack, CHANNELS_PER_SENSOR,
};
use crate::trace::{build_ledger, match_spans, write_trace_json, Ledger, Matched, Tracer};

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// Sensors: 100 per organization, 2 physical channels each,
    /// aggregators on (the paper's layout).
    pub sensors: usize,
    /// Every n-th sensor carries a virtual channel (the paper: 10; 0: none).
    pub virtual_every: usize,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Request mix.
    pub mix: Mix,
    /// The timed phase is boot cycles over a fleet loaded with
    /// [`LOADED_BATCHES`] per channel; otherwise it is steady traffic over
    /// a fleet pre-filled with a seeded `0..=`[`PREFILL_MAX`] batches per
    /// channel.
    pub restart_cycles: bool,
}

/// Most batches the pre-fill gives a channel: with 512-point blocks, 0–50
/// batches spread the fleet's seals over the timed phase instead of
/// letting them fire in lockstep, which no real fleet does.
const PREFILL_MAX: u64 = 50;
/// Batches per channel loaded for the boot cycles (a sealed block, a
/// 488-point tail and WAL frames on every channel).
const LOADED_BATCHES: u64 = 100;

/// Outstanding requests of every closed loop.
pub const WINDOW: usize = 64;
/// Length of the throughput windows (1 s).
const WINDOW_NS: u64 = 1_000_000_000;
/// 90 % ingest, 5 % raw range, 5 % live data: the paper's 98/1/1 made
/// query-heavier, so each query class gets thousands of samples in a
/// short phase.
const QUERY_MIX: Mix = Mix {
    raw_pm: 50,
    live_pm: 50,
};
const INGEST_ONLY: Mix = Mix {
    raw_pm: 0,
    live_pm: 0,
};
/// The paper's mix: 98 % ingest, 1 % raw range, 1 % live data.
const PAPER_MIX: Mix = Mix {
    raw_pm: 10,
    live_pm: 10,
};
/// The open-loop pass of a traced run: request rate and length.
const OPEN_RATE: f64 = 4000.0;
const OPEN_SECONDS: f64 = 3.0;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest-durable",
        why: "plain sensors, closed loop at saturation, 98/1/1, an fsync per WAL group: acks wait for the device, workers should not - group commit has to hide it",
        sensors: 400,
        virtual_every: 0,
        fsync: FsyncPolicy::PerGroup,
        mix: PAPER_MIX,
        restart_cycles: false,
    },
    Workload {
        name: "ingest-nofsync",
        why: "the same with the device taken out: dispatch, handlers, compression and WAL framing do all of the work",
        sensors: 400,
        virtual_every: 0,
        fsync: FsyncPolicy::OnDemand,
        mix: PAPER_MIX,
        restart_cycles: false,
    },
    Workload {
        name: "mixed-closed",
        why: "paper topology with virtual channels, closed loop at saturation, 90/5/5 ingest/raw/live, no fsync: scan decode and a 210-channel fan-out compete with writes for the same workers",
        sensors: 400,
        virtual_every: 10,
        fsync: FsyncPolicy::OnDemand,
        mix: QUERY_MIX,
        restart_cycles: false,
    },
    Workload {
        name: "restart-recover",
        why: "repeated restarts of a loaded fleet, each followed by a short burst: log replay, WAL replay, activation and cold reads, idle in the other three",
        sensors: 1000,
        virtual_every: 10,
        fsync: FsyncPolicy::OnDemand,
        mix: QUERY_MIX,
        restart_cycles: true,
    },
];

/// Finds a workload by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where data directories and result files go.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a timing, when it is one.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn timing(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// What a run produced.
pub struct RunResult {
    /// Every output check held.
    pub correct: bool,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that errored or never got a reply.
    pub failed: u64,
    /// The first few output checks that failed.
    pub check_failures: Vec<String>,
    /// The metrics: end-to-end for an untraced run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// The ledger (traced runs).
    pub ledger: Option<Ledger>,
    /// Host fingerprint.
    pub fingerprint: Fingerprint,
    /// Device probe (µs per 4 KiB write + fsync).
    pub fsync_us: f64,
}

/// Counts carried across the several clients of one run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    check_failed: u64,
    check_failures: Vec<String>,
}

impl Totals {
    fn absorb(&mut self, client: Client) -> (OpStream, Vec<u64>) {
        self.attempted += client.attempted;
        self.failed += client.failed;
        self.check_failed += client.check_failed;
        for f in &client.check_failures {
            if self.check_failures.len() < 8 {
                self.check_failures.push(f.clone());
            }
        }
        client.into_state()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failed += 1;
            if self.check_failures.len() < 8 {
                self.check_failures.push(what());
            }
        }
    }
}

fn topology_spec(virtual_every: usize) -> TopologySpec {
    TopologySpec {
        virtual_every,
        ..TopologySpec::default()
    }
}

/// Shape of the fleet a workload provisions.
struct Shape {
    sensor_order: Vec<u32>,
    orgs: usize,
    channels: usize,
    series_keys: Vec<String>,
}

impl Shape {
    fn of(w: &Workload) -> Shape {
        let topology = Topology::layout(w.sensors, topology_spec(w.virtual_every));
        let layout = FleetLayout::of(&topology);
        Shape {
            orgs: layout.org_keys.len(),
            channels: layout.channel_keys.len(),
            series_keys: layout.series_keys(),
            sensor_order: layout.sensor_order,
        }
    }

    fn stream(&self, seed: u64) -> OpStream {
        OpStream::new(seed, self.sensor_order.clone(), self.orgs)
    }
}

/// A running stack with its generator.
struct Session {
    stack: Stack,
    client: Client,
}

impl Session {
    fn open(
        w: &Workload,
        dir: &Path,
        seed: u64,
        state: (OpStream, Vec<u64>),
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(Session, OpenTimings), String> {
        let (stack, timings) = Stack::open(
            dir,
            w.sensors,
            topology_spec(w.virtual_every),
            w.fsync,
            tracer,
        )?;
        let mut client = Client::new(seed, Arc::clone(&stack.fleet), state.0, state.1);
        if let Some(t) = tracer {
            client = client.with_tracing(Arc::clone(t), stack.probe(0));
        }
        Ok((Session { stack, client }, timings))
    }

    fn shutdown(self, totals: &mut Totals) -> (OpStream, Vec<u64>) {
        let state = totals.absorb(self.client);
        self.stack.shutdown();
        state
    }
}

/// One set-up: a fresh data directory, provisioned, loaded and shut down.
/// Returns its duration and the stream state the load left.
fn set_up(
    w: &Workload,
    shape: &Shape,
    dir: &Path,
    seed: u64,
    totals: &mut Totals,
) -> Result<(f64, (OpStream, Vec<u64>)), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let fresh = (shape.stream(seed), vec![0; shape.channels]);
    // The load is not what a workload measures: it runs without per-group
    // fsync whatever the workload's policy, and is forced to the device
    // once at the end. Boots reopen the directory under the policy.
    let loading = Workload {
        fsync: FsyncPolicy::OnDemand,
        ..*w
    };
    let (mut s, _) = Session::open(&loading, dir, seed, fresh, None)?;
    s.stack.provision()?;
    if w.restart_cycles {
        s.client
            .run_closed_count(WINDOW, INGEST_ONLY, LOADED_BATCHES * w.sensors as u64);
    } else {
        // Round by round, one batch to every channel that still has some
        // to get: channels fill in step, as they would have in real time.
        let counts = prefill_counts(seed, shape.channels, PREFILL_MAX);
        let (mut round, mut channel) = (0u64, 0usize);
        s.client.run_closed(WINDOW, |stream| loop {
            if round >= PREFILL_MAX {
                return None;
            }
            if channel == counts.len() {
                channel = 0;
                round += 1;
                continue;
            }
            channel += 1;
            if counts[channel - 1] > round {
                return Some(stream.next_single((channel - 1) as u32));
            }
        });
    }
    // Nothing has been forced to the device yet: one barrier on each log
    // makes the loaded state durable before the shutdown the boots start
    // from.
    if let Some(wal) = s.stack.ts.wal() {
        wal.sync().map_err(|e| format!("wal sync: {e}"))?;
    }
    s.stack.log.sync().map_err(|e| format!("log sync: {e}"))?;
    let state = s.shutdown(totals);
    Ok((t0.elapsed().as_secs_f64(), state))
}

/// What one boot measured.
struct Boot {
    /// Open → last channel activated and checked (s).
    recover_s: f64,
    /// The activation and checking pass alone (s).
    activate_all_s: f64,
    timings: OpenTimings,
}

/// Boots the stack from `dir`: open both logs, then activate every
/// channel by asking for its statistics, check them against `state`, and
/// check the full history of one channel in 16.
fn boot(
    w: &Workload,
    dir: &Path,
    seed: u64,
    state: (OpStream, Vec<u64>),
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Session, Boot), String> {
    let t0 = Instant::now();
    let (mut s, timings) = Session::open(w, dir, seed, state, tracer)?;
    let t1 = Instant::now();
    s.client.verify_fleet(WINDOW, 16);
    Ok((
        s,
        Boot {
            recover_s: t0.elapsed().as_secs_f64(),
            activate_all_s: t1.elapsed().as_secs_f64(),
            timings,
        },
    ))
}

/// Counter snapshots taken around a measured phase.
#[derive(Clone, Copy)]
struct Counters {
    rt: RuntimeMetricsSnapshot,
    wal: WalStatsSnapshot,
}

impl Counters {
    fn of(stack: &Stack) -> Counters {
        Counters {
            rt: stack.rt.metrics(),
            wal: stack.ts.wal_stats(),
        }
    }
}

/// Counter deltas over the measured (traced) part of a run.
#[derive(Default)]
struct Deltas {
    secs: f64,
    messages: u64,
    parks: u64,
    steals: u64,
    wal_groups: u64,
    wal_frames: u64,
    wal_fsyncs: u64,
}

impl Deltas {
    fn add(&mut self, before: Counters, after: Counters, secs: f64) {
        self.secs += secs;
        self.messages += after.rt.messages_processed - before.rt.messages_processed;
        self.parks += after.rt.worker_parks - before.rt.worker_parks;
        self.steals += after.rt.scheduler_steals - before.rt.scheduler_steals;
        self.wal_groups += after.wal.groups - before.wal.groups;
        self.wal_frames += after.wal.frames - before.wal.frames;
        self.wal_fsyncs += after.wal.fsyncs - before.wal.fsyncs;
    }
}

/// Samples of the measured part of a run, pooled over its phases.
#[derive(Default)]
struct Measured {
    ack_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    live_ms: Vec<f64>,
    /// Acked sensor requests per second, one value per phase.
    acked_rps: Vec<f64>,
    send_us: Vec<f64>,
    probe_us: Vec<f64>,
    requests: u64,
    /// Requests and sensor requests sent while the tracer recorded.
    traced_requests: u64,
    traced_ingests: u64,
    /// Channel-ingests the generator sampled, and those of them matched
    /// to the spans the series wrapper recorded in the same phase.
    sampled: usize,
    matched: Vec<Matched>,
}

impl Measured {
    /// Adds a phase; `tracer` still holds the spans it recorded during it.
    fn add(&mut self, p: PhaseStats, tracer: Option<&Arc<Tracer>>) {
        self.acked_rps
            .push(windowed_rate(&p.ack_done_ns, p.len_ns, WINDOW_NS));
        self.requests += p.requests();
        self.traced_requests += p.sent_traced.iter().sum::<u64>();
        self.traced_ingests += p.sent_traced[0];
        self.ack_ms.extend(p.ack_ms);
        self.raw_ms.extend(p.raw_ms);
        self.live_ms.extend(p.live_ms);
        self.send_us.extend(p.send_us);
        self.probe_us.extend(p.probe_us);
        if let Some(t) = tracer {
            self.sampled += p.parts.len();
            self.matched.extend(match_spans(&p.parts, &t.take_spans()));
        }
    }
}

/// Seals every series, checkpoints, and returns `(tseries bytes at rest,
/// points at rest)`.
fn bytes_at_rest(stack: &Stack) -> Result<(u64, u64), String> {
    let fleet = &stack.fleet;
    for key in fleet.series_keys.iter().chain(&fleet.virtual_series_keys) {
        stack.ts.seal(key).map_err(|e| format!("seal {key}: {e}"))?;
    }
    stack
        .ts
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let bytes = stack
        .log
        .scan_prefix(&Key::namespace_prefix("tseries"))
        .map_err(|e| format!("scan tseries records: {e}"))?
        .iter()
        .map(|(_, v)| v.len() as u64)
        .sum();
    let totals = stack.ts.totals();
    Ok((bytes, totals.sealed_points + totals.tail_points))
}

/// Length of the unrecorded warm-up before a steady timed phase.
fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).clamp(0.5, 2.0))
}

/// Set-ups per run (the median is reported).
const SETUPS: usize = 3;
/// Boots per steady run (the median is reported).
const BOOTS: usize = 9;

/// Runs `w` once.
pub fn run(w: &Workload, opts: &RunOptions) -> Result<RunResult, String> {
    let root = opts
        .out_dir
        .join(format!("data-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let result = run_in(w, opts, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(w: &Workload, opts: &RunOptions, root: &Path) -> Result<RunResult, String> {
    let seed = opts.seed;
    let shape = Shape::of(w);
    let mut totals = Totals::default();
    let fingerprint = Fingerprint::collect(root);
    let fsync_us = layers::fsync_probe_us(root, if opts.trace { 30 } else { 10 })?;
    let tracer = opts.trace.then(|| Tracer::new(&shape.series_keys));
    let tracer = tracer.as_ref();

    // ---- set-up: provision + load, several times over.
    let base = root.join("base");
    let mut setups = (0..SETUPS)
        .map(|_| set_up(w, &shape, &base, seed, &mut totals))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s: Vec<f64> = setups.iter().map(|(secs, _)| *secs).collect();
    let (_, state) = setups.pop().expect("at least one set-up");
    let loaded_points: u64 = state.1.iter().sum::<u64>() * BATCH_POINTS;
    let base_disk_bytes = dir_bytes(&base);

    // ---- boots and the timed phase.
    let work = root.join("work");
    let mut boots: Vec<Boot> = Vec::new();
    let mut measured = Measured::default();
    let mut alternating = (0.0, 0.0);
    let mut untraced_recover = Vec::new();
    let mut deltas = Deltas::default();
    let seconds = Duration::from_secs_f64(opts.seconds);
    if let Some(t) = tracer {
        t.set_enabled(true);
    }

    let final_state = if w.restart_cycles {
        // Each cycle restarts from a fresh copy of the loaded directory,
        // so every cycle replays the same logs; the burst after the boot
        // is the first traffic a restarted fleet serves. The first cycle
        // warms the page cache and is not recorded. A traced run leaves
        // the wrappers off on every other cycle, which gives the overhead.
        let burst_ops = 2 * w.sensors as u64;
        let t0 = Instant::now();
        let mut cycle = 0usize;
        while cycle < 3 || t0.elapsed() < seconds {
            let traced = cycle % 2 == 1;
            if let Some(t) = tracer {
                t.set_enabled(traced);
            }
            copy_dir(&base, &work)?;
            let (mut s, b) = boot(w, &work, seed, state.clone(), tracer)?;
            let before = Counters::of(&s.stack);
            let burst = s.client.run_closed_count(WINDOW, w.mix, burst_ops);
            let after = Counters::of(&s.stack);
            if let Some(t) = tracer {
                // The shutdown's state flushes are not the burst's work.
                t.set_enabled(false);
            }
            s.shutdown(&mut totals);
            if cycle > 0 {
                if tracer.is_none() || traced {
                    deltas.add(before, after, burst.len_ns as f64 / 1e9);
                    measured.add(burst, tracer);
                    boots.push(b);
                } else {
                    untraced_recover.push(b.recover_s);
                }
            }
            cycle += 1;
        }
        copy_dir(&base, &work)?;
        state
    } else {
        for _ in 1..BOOTS {
            copy_dir(&base, &work)?;
            let (s, b) = boot(w, &work, seed, state.clone(), tracer)?;
            boots.push(b);
            s.shutdown(&mut totals);
        }
        // The last boot stays up for the timed phase.
        copy_dir(&base, &work)?;
        let (mut s, b) = boot(w, &work, seed, state, tracer)?;
        boots.push(b);
        if let Some(t) = tracer {
            t.set_enabled(false);
        }
        s.client
            .run_closed_for(WINDOW, w.mix, warm_up(opts.seconds));
        match tracer {
            None => measured.add(s.client.run_closed_for(WINDOW, w.mix, seconds), None),
            Some(t) => {
                // The wrappers record during every other second and pass
                // through in between: both halves see the same data sizes
                // and host conditions, and the difference between their
                // throughputs is the tracing overhead.
                t.reset();
                s.client.alternate_tracing(Some(WINDOW_NS));
                let before = Counters::of(&s.stack);
                let phase = s.client.run_closed_for(WINDOW, w.mix, seconds);
                let after = Counters::of(&s.stack);
                s.client.alternate_tracing(None);
                t.set_enabled(false);
                alternating = alternating_rates(&phase.ack_done_ns, phase.len_ns, WINDOW_NS);
                deltas.add(before, after, phase.len_ns as f64 / 1e9);
                measured.add(phase, tracer);
            }
        }
        // After the drain every channel holds exactly what was acked.
        s.stack.rt.quiesce(Duration::from_secs(10));
        s.client.verify_fleet(WINDOW, 16);
        s.shutdown(&mut totals)
    };

    // The tracer is off from here on: what it holds is the traced part.
    let layer_view = tracer.map(|t| LayerView::of(t));

    // ---- restart once more: what was acked is there; then the at-rest
    // footprint, and the direct layer measurements on the idle stack.
    let disk_bytes = dir_bytes(&work);
    let acked_points: u64 = final_state.1.iter().sum::<u64>() * BATCH_POINTS;
    // A traced run also sends a few seconds of open-loop traffic at a
    // fixed rate well below saturation, always with an fsync per group:
    // the one place where the latency of the durable path at a fixed rate
    // is observed on every fleet. Its figures are reported per layer and
    // not gated: on this host a median at low load flips between two
    // values from one run to the next (live data 0.33 ms or 0.55 ms at
    // 8000 req/s), depending on whether requests find the second worker
    // parked, and the device's own latency drifts by a factor of two.
    let last = Workload {
        fsync: if tracer.is_some() {
            FsyncPolicy::PerGroup
        } else {
            w.fsync
        },
        ..*w
    };
    let (mut s, _) = boot(&last, &work, seed, final_state, tracer)?;
    let open = tracer.map(|t| {
        t.reset();
        t.set_enabled(true);
        let len = Duration::from_secs_f64(OPEN_SECONDS.min(opts.seconds));
        let pass = s.client.run_open_for(OPEN_RATE, QUERY_MIX, len);
        t.set_enabled(false);
        s.stack.rt.quiesce(Duration::from_secs(10));
        (pass, LayerView::of(t))
    });
    let (rest_bytes, rest_points) = bytes_at_rest(&s.stack)?;
    let acked_now: u64 = s.client.acked_batches.iter().sum::<u64>() * BATCH_POINTS;
    totals.check(rest_points >= acked_now, || {
        format!("{rest_points} points at rest, {acked_now} acked")
    });
    let direct = match tracer {
        Some(_) => Some(Direct::measure(&s.stack, root, w.fsync, seed)?),
        None => None,
    };
    s.shutdown(&mut totals);

    let failed = totals.failed;
    totals.check(failed == 0, || format!("{failed} operations failed"));
    let recover: Vec<f64> = boots.iter().map(|b| b.recover_s).collect();

    let mut ledger = None;
    let metrics = if let (Some(view), Some(direct), Some(open)) = (layer_view, direct, open) {
        let l = build_ledger(measured.sampled, &measured.matched);
        let trace_path = opts.out_dir.join(format!("{}.trace.json", w.name));
        write_trace_json(&trace_path, &measured.matched, 20_000)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 1.0 };
        let overhead_pct = if w.restart_cycles {
            100.0 * (ratio(median(&recover), median(&untraced_recover)) - 1.0)
        } else {
            100.0 * (1.0 - ratio(alternating.1, alternating.0))
        };
        let m = per_layer_metrics(PerLayer {
            measured: &mut measured,
            open,
            deltas: &deltas,
            boots: &boots,
            view: &view,
            direct: &direct,
            ledger: &l,
            fsync_us,
            overhead_pct,
            disk_bytes_per_point: if w.restart_cycles {
                base_disk_bytes as f64 / loaded_points as f64
            } else {
                disk_bytes as f64 / acked_points as f64
            },
        });
        ledger = Some(l);
        m
    } else {
        end_to_end_metrics(EndToEnd {
            measured: &mut measured,
            recover_s: &recover,
            setup_s: &setup_s,
            bytes_per_point: rest_bytes as f64 / rest_points.max(1) as f64,
        })
    };

    Ok(RunResult {
        correct: totals.check_failed == 0,
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        check_failures: totals.check_failures,
        metrics,
        ledger,
        fingerprint,
        fsync_us,
    })
}

struct EndToEnd<'a> {
    measured: &'a mut Measured,
    recover_s: &'a [f64],
    setup_s: &'a [f64],
    bytes_per_point: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(e: EndToEnd<'_>) -> Vec<Metric> {
    let m = e.measured;
    let (n_ack, n_raw, n_live) = (m.ack_ms.len(), m.raw_ms.len(), m.live_ms.len());
    let p50 = |v: &mut Vec<f64>| Sorted::new(v).quantile(0.5);
    vec![
        timing("acked_rps", median(&m.acked_rps), "1/s", n_ack),
        timing("ack_p50_ms", p50(&mut m.ack_ms), "ms", n_ack),
        timing("raw_p50_ms", p50(&mut m.raw_ms), "ms", n_raw),
        timing("live_p50_ms", p50(&mut m.live_ms), "ms", n_live),
        timing("recover_s", median(e.recover_s), "s", e.recover_s.len()),
        metric("bytes_per_point", e.bytes_per_point, "B/point"),
        timing("setup_s", median(e.setup_s), "s", e.setup_s.len()),
    ]
}

/// Quantiles and counts read off the tracer at the end of the traced
/// part (ns → µs).
#[derive(Default)]
struct LayerView {
    append_p50_us: f64,
    append_p99_us: f64,
    seal_append_p50_us: f64,
    commit_p50_us: f64,
    commit_p99_us: f64,
    sync_append_p50_us: f64,
    scan_p50_us: f64,
    recover_p50_us: f64,
    put_p50_us: f64,
    sync_p50_us: f64,
    appends: u64,
    seals: u64,
    scans: u64,
    scan_points: u64,
    puts_tseries: u64,
    puts_state: u64,
    put_bytes: u64,
    syncs: u64,
}

impl LayerView {
    fn of(t: &Tracer) -> LayerView {
        use std::sync::atomic::Ordering::Relaxed;
        let q =
            |h: &aodb_runtime::Histogram, q: f64| h.snapshot().value_at_quantile(q) as f64 / 1e3;
        LayerView {
            append_p50_us: q(&t.append, 0.5),
            append_p99_us: q(&t.append, 0.99),
            seal_append_p50_us: q(&t.seal_append, 0.5),
            commit_p50_us: q(&t.commit, 0.5),
            commit_p99_us: q(&t.commit, 0.99),
            sync_append_p50_us: q(&t.sync_append, 0.5),
            scan_p50_us: q(&t.scan, 0.5),
            recover_p50_us: q(&t.recover, 0.5),
            put_p50_us: q(&t.put, 0.5),
            sync_p50_us: q(&t.sync, 0.5),
            appends: t.appends.load(Relaxed),
            seals: t.seals.load(Relaxed),
            scans: t.scans.load(Relaxed),
            scan_points: t.scan_points.load(Relaxed),
            puts_tseries: t.puts_tseries.load(Relaxed),
            puts_state: t.puts_state.load(Relaxed),
            put_bytes: t.put_bytes.load(Relaxed),
            syncs: t.syncs.load(Relaxed),
        }
    }
}

/// The direct single-layer measurements of a traced run.
#[derive(Default)]
struct Direct {
    codec_append_ns: f64,
    codec_decode_ns: f64,
    engine_points_per_s: f64,
    submit_ack_us_o1: f64,
    submit_ack_us_o64: f64,
    persist_save_us: f64,
    runtime: layers::RuntimeDirect,
}

impl Direct {
    fn measure(stack: &Stack, dir: &Path, fsync: FsyncPolicy, seed: u64) -> Result<Direct, String> {
        let (codec_append_ns, codec_decode_ns) = layers::codec_ns_per_point(seed);
        Ok(Direct {
            codec_append_ns,
            codec_decode_ns,
            engine_points_per_s: layers::engine_points_per_s(seed),
            submit_ack_us_o1: layers::wal_submit_ack_us(dir, fsync, 1)?,
            submit_ack_us_o64: layers::wal_submit_ack_us(dir, fsync, 64)?,
            persist_save_us: layers::persist_save_us(),
            runtime: layers::runtime_direct(stack)?,
        })
    }
}

struct PerLayer<'a> {
    measured: &'a mut Measured,
    /// The open-loop pass and what the wrappers recorded during it.
    open: (PhaseStats, LayerView),
    deltas: &'a Deltas,
    boots: &'a [Boot],
    view: &'a LayerView,
    direct: &'a Direct,
    ledger: &'a Ledger,
    fsync_us: f64,
    overhead_pct: f64,
    disk_bytes_per_point: f64,
}

fn per_layer_metrics(p: PerLayer<'_>) -> Vec<Metric> {
    let PerLayer {
        measured: m,
        open: (mut open, open_view),
        deltas: d,
        boots,
        view: v,
        direct,
        ledger,
        fsync_us,
        overhead_pct,
        disk_bytes_per_point,
    } = p;
    let per = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    let per_s = |n: u64| if d.secs > 0.0 { n as f64 / d.secs } else { 0.0 };
    let row = |name: &str| {
        ledger
            .rows
            .iter()
            .find(|r| r.name == name)
            .cloned()
            .unwrap_or_default()
    };
    let boot_median = |f: fn(&Boot) -> f64| median(&boots.iter().map(f).collect::<Vec<_>>());
    let log_open_s = boot_median(|b| b.timings.log_open_s);
    let log_mb = boot_median(|b| b.timings.log_bytes as f64 / 1e6);
    let log_mb_per_s = if log_open_s > 0.0 {
        log_mb / log_open_s
    } else {
        0.0
    };
    let traced_points = m.traced_ingests * u64::from(CHANNELS_PER_SENSOR) * BATCH_POINTS;
    let (n_ack, n_raw, n_live) = (m.ack_ms.len(), m.raw_ms.len(), m.live_ms.len());
    let n_parts = ledger.matched;
    let pct = |v: &mut Vec<f64>, q: f64| (Sorted::new(v).quantile(q), v.len());
    let (send_p50, n_send) = pct(&mut m.send_us, 0.5);
    let (ack_p99, _) = pct(&mut m.ack_ms, 0.99);
    let (raw_p99, _) = pct(&mut m.raw_ms, 0.99);
    let (live_p99, _) = pct(&mut m.live_ms, 0.99);
    let (open_ack, n_open_ack) = pct(&mut open.ack_ms, 0.5);
    let (open_raw, n_open_raw) = pct(&mut open.raw_ms, 0.5);
    let (open_live, n_open_live) = pct(&mut open.live_ms, 0.5);
    let (open_late, n_open) = pct(&mut open.late_ms, 0.99);
    let (probe_p50, n_probe) = pct(&mut m.probe_us, 0.5);
    let (probe_p99, _) = pct(&mut m.probe_us, 0.99);
    let (prefix, deliver) = (row("shm.turn_prefix"), row("client.reply_deliver"));
    let puts = v.puts_tseries + v.puts_state;

    vec![
        // client (generator): context for every latency
        timing("client.send_us", send_p50, "us", n_send),
        timing("client.reply_deliver_us", deliver.p50_us, "us", n_parts),
        timing("client.ack_p99_ms", ack_p99, "ms", n_ack),
        timing("client.raw_p99_ms", raw_p99, "ms", n_raw),
        timing("client.live_p99_ms", live_p99, "ms", n_live),
        timing("open.ack_p50_ms", open_ack, "ms", n_open_ack),
        timing("open.raw_p50_ms", open_raw, "ms", n_open_raw),
        timing("open.live_p50_ms", open_live, "ms", n_open_live),
        timing("open.gen_late_p99_ms", open_late, "ms", n_open),
        metric("open.backlog_end", open.backlog_end as f64, "count"),
        metric("open.commit_p50_us", open_view.commit_p50_us, "us"),
        metric(
            "open.virtual_append_p50_us",
            open_view.sync_append_p50_us,
            "us",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric(
            "trace.ledger_matched_pct",
            100.0 * ledger.matched_share(),
            "%",
        ),
        metric(
            "trace.ledger_covered_pct",
            100.0 * ledger.covered_share(),
            "%",
        ),
        // runtime
        metric("runtime.msgs_per_req", per(d.messages, m.requests), "count"),
        metric("runtime.parks_per_s", per_s(d.parks), "1/s"),
        metric("runtime.steals_per_s", per_s(d.steals), "1/s"),
        timing("runtime.probe_rtt_p50_us", probe_p50, "us", n_probe),
        timing("runtime.probe_rtt_p99_us", probe_p99, "us", n_probe),
        metric(
            "runtime.ask_rtt_idle_us",
            direct.runtime.ask_rtt_idle_us,
            "us",
        ),
        metric(
            "runtime.tell_msgs_per_s",
            direct.runtime.tell_msgs_per_s,
            "1/s",
        ),
        metric("runtime.activate_us", direct.runtime.activate_us, "us"),
        // shm
        timing("shm.turn_prefix_p50_us", prefix.p50_us, "us", n_parts),
        timing("shm.turn_prefix_p99_us", prefix.p99_us, "us", n_parts),
        metric(
            "shm.live_fanout_msgs",
            direct.runtime.live_fanout_msgs,
            "count",
        ),
        timing(
            "shm.activate_all_s",
            boot_median(|b| b.activate_all_s),
            "s",
            boots.len(),
        ),
        metric("shm.virtual_append_p50_us", v.sync_append_p50_us, "us"),
        // store.tseries
        timing(
            "tseries.append_p50_us",
            v.append_p50_us,
            "us",
            v.appends as usize,
        ),
        timing(
            "tseries.append_p99_us",
            v.append_p99_us,
            "us",
            v.appends as usize,
        ),
        metric("tseries.seal_share", per(v.seals, v.appends), "ratio"),
        timing(
            "tseries.seal_append_p50_us",
            v.seal_append_p50_us,
            "us",
            v.seals as usize,
        ),
        timing("tseries.scan_p50_us", v.scan_p50_us, "us", v.scans as usize),
        metric(
            "tseries.scan_points_per_call",
            per(v.scan_points, v.scans),
            "count",
        ),
        metric("tseries.recover_p50_us", v.recover_p50_us, "us"),
        metric(
            "tseries.codec_append_ns_per_point",
            direct.codec_append_ns,
            "ns",
        ),
        metric(
            "tseries.codec_decode_ns_per_point",
            direct.codec_decode_ns,
            "ns",
        ),
        metric(
            "tseries.engine_points_per_s",
            direct.engine_points_per_s,
            "1/s",
        ),
        // store.wal
        metric("wal.commit_p50_us", v.commit_p50_us, "us"),
        metric("wal.commit_p99_us", v.commit_p99_us, "us"),
        metric(
            "wal.group_size_mean",
            per(d.wal_frames, d.wal_groups),
            "count",
        ),
        metric("wal.groups_per_s", per_s(d.wal_groups), "1/s"),
        metric("wal.fsyncs_per_req", per(d.wal_fsyncs, m.requests), "count"),
        timing(
            "wal.replay_s",
            boot_median(|b| b.timings.wal_replay_s),
            "s",
            boots.len(),
        ),
        metric("wal.submit_ack_us_o1", direct.submit_ack_us_o1, "us"),
        metric("wal.submit_ack_us_o64", direct.submit_ack_us_o64, "us"),
        metric("wal.fsync_us", fsync_us, "us"),
        // store.log
        timing("log.put_p50_us", v.put_p50_us, "us", puts as usize),
        timing("log.sync_p50_us", v.sync_p50_us, "us", v.syncs as usize),
        metric("log.puts_per_req", per(puts, m.traced_requests), "count"),
        metric(
            "log.syncs_per_req",
            per(v.syncs, m.traced_requests),
            "count",
        ),
        metric(
            "log.bytes_written_per_point",
            per(v.put_bytes, traced_points),
            "B/point",
        ),
        metric("log.disk_bytes_per_point", disk_bytes_per_point, "B/point"),
        timing("log.open_s", log_open_s, "s", boots.len()),
        metric("log.open_mb_per_s", log_mb_per_s, "MB/s"),
        // core.persist
        metric(
            "persist.state_puts_per_req",
            per(v.puts_state, m.traced_requests),
            "count",
        ),
        metric("persist.save_us", direct.persist_save_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &serde_json::Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` is the contract the regression gate reads; the
    /// names, units and reasons in it must be the ones the code reports.
    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let spec: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");

        let workloads: Vec<(String, String)> = spec
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("why"))
            })
            .collect();
        let in_code: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, in_code);

        let end_to_end = end_to_end_metrics(EndToEnd {
            measured: &mut Measured::default(),
            recover_s: &[],
            setup_s: &[],
            bytes_per_point: 0.0,
        });
        assert_eq!(
            names(spec.get("end_to_end").expect("end_to_end")),
            reported(end_to_end)
        );

        let per_layer = per_layer_metrics(PerLayer {
            measured: &mut Measured::default(),
            open: (PhaseStats::default(), LayerView::default()),
            deltas: &Deltas::default(),
            boots: &[],
            view: &LayerView::default(),
            direct: &Direct::default(),
            ledger: &Ledger::default(),
            fsync_us: 0.0,
            overhead_pct: 0.0,
            disk_bytes_per_point: 0.0,
        });
        assert_eq!(
            names(spec.get("per_layer").expect("per_layer")),
            reported(per_layer)
        );
    }

    #[test]
    fn warm_up_scales_with_the_phase_and_is_capped() {
        assert_eq!(warm_up(2.0), Duration::from_secs_f64(0.5));
        assert_eq!(warm_up(5.0), Duration::from_secs(1));
        assert_eq!(warm_up(60.0), Duration::from_secs(2));
    }
}
