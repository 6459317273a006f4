//! Differential oracle for the channel data plane: one seeded SHM
//! workload runs against three series stores, and everything the
//! platform answers must be identical across them.
//!
//! * the reference ([`ReferenceSeries`]: points in append order plus the
//!   last meta, nothing else),
//! * `TsStore::new` over a `MemStore` and an in-memory WAL medium
//!   (`MemMedia`, synced per group),
//! * `TsStore::with_wal` over a `LogStore` (a WAL file on disk, synced
//!   on demand).
//!
//! Both engine legs commit every append as a group-commit delta; they
//! differ in medium, backing store and fsync policy.
//!
//! The workload ingests out-of-order, duplicate-timestamp and redelivered
//! batches through a faulty client hop (drops and delays), kills
//! and restarts a silo, and halfway through kills every silo and reopens
//! each leg's stores from what they left behind. Along the way it reads
//! raw ranges, stats, live data, aggregate buckets and the alert log.
//! Each leg writes a transcript of every reply; the engine legs must
//! reproduce the reference's transcript line for line. Every leg runs
//! the paper-default environment, and its final sweep checks one
//! invariant on its own: each hour and day bucket equals the fold of the
//! channel's points at that width.
//!
//! The transcript is a pure function of the seed: one client thread
//! sends, waits for the reply (retransmitting what the network lost) and
//! quiesces before every read and every kill, and only the client hop
//! draws network faults, so the fault dice fall on the same messages in
//! every leg. The network duplicates nothing: which copy of a duplicated
//! request a channel admits first is up to the network thread, so the
//! reply the client sees would not be a function of the seed. The driver
//! redelivers acked batches itself instead. `CHAOS_SEED=<seed>` replays
//! a failure.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use aodb_chaos::{ChaosNetConfig, FaultPlan, ReferenceSeries, SeedReport, SpreadPlacement};
use aodb_runtime::chaos::mix64;
use aodb_runtime::{
    Actor, ActorError, LatencyModel, NetConfig, Promise, Runtime, RuntimeBuilder, SendError, SiloId,
};
use aodb_shm::messages::{ChannelStats, GetChannelStats, Ingest, QueryRange};
use aodb_shm::types::{Aggregate, AggregateLevel, DataPoint, Threshold};
use aodb_shm::{
    provision, register_all, series_key, PhysicalSensorChannel, ShmClient, ShmEnv, Topology,
    TopologySpec, VirtualSensorChannel,
};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{
    FsyncPolicy, LogStore, LogStoreConfig, MemMedia, MemStore, StateStore, WalConfig,
};

const DEFAULT_SEED: u64 = 0xD1FF_5EED;
const SILOS: usize = 2;
/// The silo the workload kills; silo 0 always survives.
const VICTIM: SiloId = SiloId(1);
/// Four sensors, every second one with a virtual channel: 8 physical
/// and 2 virtual channels in one organization.
const SENSORS: usize = 4;
/// Workload steps before and after the full reopen.
const STEPS: u64 = 150;
/// Small blocks, so scans and recovery cross many seal boundaries.
const SEAL_POINTS: u32 = 32;
/// One batch of just over an hour at 10 Hz: every range and recovery
/// must return all of it.
const BULK_POINTS: u64 = 36_500;
const HOUR: u64 = 3_600_000;
const T: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug)]
enum Leg {
    Reference,
    Engine,
    Wal,
}

/// What a leg's stores leave behind for a reopen: the in-memory stores
/// themselves for the reference and engine legs (the engine leg's WAL
/// medium included), a directory for the WAL leg.
struct Disk {
    leg: Leg,
    blobs: Arc<MemStore>,
    reference: Arc<ReferenceSeries>,
    media: MemMedia,
    dir: PathBuf,
}

impl Disk {
    fn new(leg: Leg, seed: u64) -> Disk {
        let dir = std::env::temp_dir().join(format!(
            "aodb-differential-{}-{seed:x}-{leg:?}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Disk {
            leg,
            blobs: Arc::new(MemStore::new()),
            reference: Arc::new(ReferenceSeries::new()),
            media: MemMedia::new(),
            dir,
        }
    }

    /// Opens the leg's state and series stores under the paper-default
    /// environment.
    fn open(&self) -> (ShmEnv, Arc<dyn SeriesStore>) {
        let config = TsConfig::sealing_every(SEAL_POINTS);
        let (store, series): (Arc<dyn StateStore>, Arc<dyn SeriesStore>) = match self.leg {
            Leg::Reference => (self.blobs.clone(), self.reference.clone()),
            Leg::Engine => {
                let ts = TsStore::new(
                    self.blobs.clone(),
                    config,
                    self.media.clone(),
                    WalConfig::default(),
                );
                (self.blobs.clone(), Arc::new(ts.unwrap()))
            }
            Leg::Wal => {
                let log: Arc<dyn StateStore> =
                    Arc::new(LogStore::open(LogStoreConfig::new(&self.dir)).unwrap());
                let wal = WalConfig {
                    fsync_policy: FsyncPolicy::OnDemand,
                };
                let ts = TsStore::with_wal(log.clone(), config, self.dir.join("series.wal"), wal);
                (log, Arc::new(ts.unwrap()))
            }
        };
        let env = ShmEnv::paper_default(store).with_series_store(Arc::clone(&series));
        (env, series)
    }
}

impl Drop for Disk {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One runtime over a leg's opened stores. Fields drop in order: the
/// runtime first, so the last reference to the series store (and with
/// it a WAL's committer thread) goes after it.
struct Platform {
    rt: Runtime,
    series: Arc<dyn SeriesStore>,
}

impl Platform {
    fn boot(disk: &Disk, net_seed: u64) -> Platform {
        let faults = ChaosNetConfig {
            drop_per_mille: 50,
            duplicate_per_mille: 0,
            delay_per_mille: 150,
            max_extra_delay: Duration::from_micros(300),
        };
        let rt = RuntimeBuilder::new()
            .silos(SILOS, 2)
            .placement(SpreadPlacement)
            .network(NetConfig {
                cross_silo: None,
                client: Some(LatencyModel::fixed(Duration::from_micros(20))),
            })
            .chaos(FaultPlan::new(net_seed).with_net(faults))
            .build();
        let (env, series) = disk.open();
        register_all(&rt, env);
        Platform { rt, series }
    }

    fn quiesce(&self) {
        assert!(self.rt.quiesce(T), "platform never went quiet");
    }

    /// Kills every silo, so no activation flushes anything on the way
    /// out, once the series store has made every queued append durable.
    fn crash(self) {
        self.quiesce();
        let (tx, rx) = std::sync::mpsc::channel();
        self.series.barrier_async(Box::new(move |r| {
            let _ = tx.send(r);
        }));
        rx.recv().unwrap().unwrap();
        for s in 0..SILOS {
            self.rt.kill_silo(SiloId(s as u32));
        }
    }
}

/// Sends until a reply arrives. A request the network dropped resolves
/// `Lost` and one caught by a silo kill `SiloLost`; both are sent again,
/// as a client retransmits an unacknowledged request.
fn retry<R>(mut send: impl FnMut() -> Result<Promise<R>, SendError>) -> R {
    for _ in 0..100 {
        match send().expect("silo 0 is always alive").wait_for(T) {
            Ok(reply) => return reply,
            Err(ActorError::Lost | ActorError::SiloLost) => continue,
            Err(e) => panic!("request failed: {e}"),
        }
    }
    panic!("no reply after 100 attempts");
}

fn digest(points: &[DataPoint]) -> String {
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for word in [p.ts_ms, p.value.to_bits()] {
            fnv = (fnv ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "{} points, fnv {fnv:016x}, first {:?}, last {:?}",
        points.len(),
        points.first(),
        points.last()
    )
}

/// `points`, in order, folded into buckets of `level`'s width.
fn fold(points: &[DataPoint], level: AggregateLevel) -> Vec<(u64, Aggregate)> {
    let mut buckets = std::collections::BTreeMap::<u64, Aggregate>::new();
    for p in points {
        buckets
            .entry(level.bucket_start(p.ts_ms))
            .or_default()
            .record(p.value);
    }
    buckets.into_iter().collect()
}

fn stats_line(s: ChannelStats) -> String {
    format!(
        "total {} acc {:?} net {:?} last {:?}",
        s.total_points, s.accumulated_change, s.net_change, s.last
    )
}

/// What one leg saw, plus how much of the fault space it covered.
#[derive(Default)]
struct Transcript {
    lines: Vec<(String, String)>,
    kills: u64,
    redeliveries: u64,
    net_faults: u64,
}

/// The seeded workload. Its random choices never depend on a reply, so
/// every leg issues the same requests.
struct Workload {
    rng: u64,
    org: String,
    physical: Vec<String>,
    virtuals: Vec<String>,
    /// Per physical channel: the data clock, and every acked batch by
    /// `seq - 1` (redeliveries resend them).
    clock: Vec<u64>,
    sent: Vec<Vec<Vec<DataPoint>>>,
    victim_dead: bool,
    out: Transcript,
}

impl Workload {
    fn new(seed: u64, topology: &Topology) -> Workload {
        let physical: Vec<String> = topology.physical_channels().map(str::to_string).collect();
        let virtuals = topology.orgs[0]
            .sensors
            .iter()
            .filter_map(|s| s.virtual_channel.clone())
            .collect();
        Workload {
            rng: mix64(seed ^ 0x5EED_D1FF),
            org: topology.orgs[0].key.clone(),
            clock: (0..physical.len() as u64).map(|c| c * 7).collect(),
            sent: vec![Vec::new(); physical.len()],
            physical,
            virtuals,
            victim_dead: false,
            out: Transcript::default(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng = self.rng.wrapping_add(1);
        mix64(self.rng) % n
    }

    fn note(&mut self, op: String, seen: String) {
        self.out.lines.push((op, seen));
    }

    /// A batch for physical channel `c`: mostly advancing time, with
    /// points that step back, repeat the previous timestamp, or jump
    /// hours ahead (closing aggregate buckets).
    fn batch(&mut self, c: usize) -> Vec<DataPoint> {
        let n = 1 + self.below(6);
        let mut out: Vec<DataPoint> = Vec::new();
        for _ in 0..n {
            let ts = match (self.below(10), out.last()) {
                (0, Some(prev)) => prev.ts_ms,
                (1 | 2, _) => self.clock[c].saturating_sub(1 + self.below(30_000)),
                (3, _) => {
                    self.clock[c] += self.below(6 * HOUR);
                    self.clock[c]
                }
                _ => {
                    self.clock[c] += 100 + self.below(900);
                    self.clock[c]
                }
            };
            let value = 10.0 + self.below(200) as f64 * 0.25;
            out.push(DataPoint { ts_ms: ts, value });
        }
        out
    }

    /// Sends batch `seq` of physical channel `c` until it is acked, and
    /// returns the points the channel accepted.
    fn ingest(&self, p: &Platform, c: usize, seq: u64, points: &[DataPoint]) -> u32 {
        let target =
            p.rt.actor_ref::<PhysicalSensorChannel>(self.physical[c].as_str());
        retry(|| target.ask_replayable(Ingest::deduped(points.to_vec(), c as u64 + 1, seq)))
    }

    fn fresh(&mut self, p: &Platform, c: usize, points: Vec<DataPoint>) {
        let seq = self.sent[c].len() as u64 + 1;
        let accepted = self.ingest(p, c, seq, &points);
        let op = format!("ingest {} seq {seq}", self.physical[c]);
        assert_eq!(accepted as usize, points.len(), "{op}: not admitted whole");
        self.sent[c].push(points);
        self.note(op, accepted.to_string());
    }

    fn step(&mut self, p: &Platform, step: u64) {
        // Fixed points every leg passes through whatever the seed: the
        // bulk batch, one kill and one restart per phase.
        match step {
            30 => return self.bulk(p),
            50 | 200 if !self.victim_dead => return self.toggle_victim(p),
            100 | 250 if self.victim_dead => return self.toggle_victim(p),
            _ => {}
        }
        match self.below(100) {
            0..=54 => {
                let c = self.below(self.physical.len() as u64) as usize;
                let points = self.batch(c);
                self.fresh(p, c, points);
            }
            55..=62 => self.redeliver(p),
            63..=77 => self.raw_range(p),
            78..=84 => self.stats(p),
            85..=89 => self.live(p),
            90..=94 => self.aggregates(p),
            95..=97 => self.alerts(p),
            _ => self.toggle_victim(p),
        }
    }

    /// Channel 0 takes `BULK_POINTS` in one batch, smooth values inside
    /// the thresholds.
    fn bulk(&mut self, p: &Platform) {
        let start = self.clock[0];
        let points = (1..=BULK_POINTS)
            .map(|i| DataPoint {
                ts_ms: start + i * 100,
                value: 30.0 + (i % 40) as f64 * 0.25,
            })
            .collect();
        self.clock[0] = start + BULK_POINTS * 100;
        self.fresh(p, 0, points);
    }

    /// Resends an acked batch under its original sequence number.
    fn redeliver(&mut self, p: &Platform) {
        let c = self.below(self.physical.len() as u64) as usize;
        if self.sent[c].is_empty() {
            return;
        }
        let seq = 1 + self.below(self.sent[c].len() as u64);
        let points = self.sent[c][seq as usize - 1].clone();
        let accepted = self.ingest(p, c, seq, &points);
        self.out.redeliveries += 1;
        let op = format!("redeliver {} seq {seq}", self.physical[c]);
        assert_eq!(accepted, 0, "{op}: admitted a second time");
        self.note(op, accepted.to_string());
    }

    /// A physical or virtual channel key, and whether it is virtual.
    fn any_channel(&mut self) -> (String, bool) {
        let n = (self.physical.len() + self.virtuals.len()) as u64;
        match self.below(n) as usize {
            i if i < self.physical.len() => (self.physical[i].clone(), false),
            i => (self.virtuals[i - self.physical.len()].clone(), true),
        }
    }

    fn raw_range(&mut self, p: &Platform) {
        let (key, is_virtual) = self.any_channel();
        let horizon = self.clock.iter().max().copied().unwrap_or(0) + 1;
        let from = self.below(horizon);
        let to = match self.below(4) {
            0 => u64::MAX,
            _ => from + self.below(3 * HOUR),
        };
        let limit = [0, 0, 1, 7, 50][self.below(5) as usize];
        let q = QueryRange {
            from_ms: from,
            to_ms: to,
            limit,
        };
        p.quiesce();
        let hits = if is_virtual {
            let target = p.rt.actor_ref::<VirtualSensorChannel>(key.as_str());
            retry(|| target.ask(q))
        } else {
            let target = p.rt.actor_ref::<PhysicalSensorChannel>(key.as_str());
            retry(|| target.ask(q))
        };
        self.note(
            format!("range {key} [{from}, {to}] limit {limit}"),
            digest(&hits),
        );
    }

    fn channel_stats(p: &Platform, key: &str, is_virtual: bool) -> ChannelStats {
        if is_virtual {
            let target = p.rt.actor_ref::<VirtualSensorChannel>(key);
            retry(|| target.ask(GetChannelStats))
        } else {
            let target = p.rt.actor_ref::<PhysicalSensorChannel>(key);
            retry(|| target.ask(GetChannelStats))
        }
    }

    fn stats(&mut self, p: &Platform) {
        let (key, is_virtual) = self.any_channel();
        p.quiesce();
        let stats = Self::channel_stats(p, &key, is_virtual);
        self.note(format!("stats {key}"), stats_line(stats));
    }

    fn live(&mut self, p: &Platform) {
        p.quiesce();
        let client = ShmClient::new(p.rt.handle());
        let mut report = retry(|| client.live_data(&self.org)).channels;
        report.sort_by(|a, b| a.0.cmp(&b.0));
        self.note(format!("live {}", self.org), format!("{report:?}"));
    }

    fn aggregates(&mut self, p: &Platform) {
        let (key, _) = self.any_channel();
        let level = [AggregateLevel::Hour, AggregateLevel::Day][self.below(2) as usize];
        self.aggregates_of(p, &key, level);
    }

    fn aggregates_of(
        &mut self,
        p: &Platform,
        key: &str,
        level: AggregateLevel,
    ) -> Vec<(u64, Aggregate)> {
        p.quiesce();
        let client = ShmClient::new(p.rt.handle());
        let buckets = retry(|| client.aggregates(key, level, 0, u64::MAX));
        self.note(
            format!("aggregates {key} {level:?}"),
            format!("{buckets:?}"),
        );
        buckets
    }

    fn alerts(&mut self, p: &Platform) {
        p.quiesce();
        let client = ShmClient::new(p.rt.handle());
        let recent = retry(|| client.recent_alerts(&self.org, 0));
        let count = retry(|| client.alert_count(&self.org));
        self.note(
            format!("alerts {}", self.org),
            format!("{count}: {recent:?}"),
        );
    }

    fn toggle_victim(&mut self, p: &Platform) {
        p.quiesce();
        if self.victim_dead {
            assert!(p.rt.restart_silo(VICTIM));
            self.note("restart".into(), String::new());
        } else {
            p.rt.kill_silo(VICTIM);
            self.out.kills += 1;
            self.note("kill".into(), String::new());
        }
        self.victim_dead = !self.victim_dead;
    }

    /// Every channel's stats, full range, series recovery and aggregate
    /// pyramid, then the organization's alerts and live data. Each hour
    /// and day bucket must equal the fold of the channel's points in the
    /// final range at that width: aggregates are a function of the
    /// series, whatever the kills did.
    fn sweep(&mut self, p: &Platform) {
        p.quiesce();
        let channels: Vec<(String, bool)> = self
            .physical
            .iter()
            .map(|k| (k.clone(), false))
            .chain(self.virtuals.iter().map(|k| (k.clone(), true)))
            .collect();
        for (key, is_virtual) in channels {
            let stats = Self::channel_stats(p, &key, is_virtual);
            self.note(format!("final stats {key}"), stats_line(stats));
            let q = QueryRange {
                from_ms: 0,
                to_ms: u64::MAX,
                limit: 0,
            };
            let hits = if is_virtual {
                let target = p.rt.actor_ref::<VirtualSensorChannel>(key.as_str());
                retry(|| target.ask(q))
            } else {
                let target = p.rt.actor_ref::<PhysicalSensorChannel>(key.as_str());
                retry(|| target.ask(q))
            };
            self.note(format!("final range {key}"), digest(&hits));
            let type_name = if is_virtual {
                VirtualSensorChannel::TYPE_NAME
            } else {
                PhysicalSensorChannel::TYPE_NAME
            };
            let mut series = String::new();
            series_key(&mut series, type_name, &key);
            let recovered = p.series.recover(&series).unwrap().points;
            self.note(format!("final recover {series}"), recovered.to_string());
            for level in [AggregateLevel::Hour, AggregateLevel::Day] {
                let buckets = self.aggregates_of(p, &key, level);
                assert_eq!(
                    buckets,
                    fold(&hits, level),
                    "{key} {level:?} buckets disagree with the channel's points"
                );
            }
        }
        self.alerts(p);
        self.live(p);
    }

    fn count_faults(&mut self, p: &Platform) {
        let injected = p.rt.chaos_stats().expect("chaos installed");
        self.out.net_faults += injected.dropped + injected.delayed;
    }
}

/// The whole workload against one leg: provision, `STEPS` steps, a crash
/// of every silo and a reopen of the stores, `STEPS` more, a final sweep.
fn run_leg(leg: Leg, seed: u64) -> Transcript {
    let disk = Disk::new(leg, seed);
    let spec = TopologySpec {
        sensors_per_org: SENSORS,
        virtual_every: 2,
        threshold: Threshold {
            high: Some(55.0),
            low: Some(12.0),
            max_accumulated_change: Some(2_000.0),
        },
        ..TopologySpec::default()
    };
    let topology = Topology::layout(SENSORS, spec);
    let mut work = Workload::new(seed, &topology);

    let p = Platform::boot(&disk, seed);
    // From silo 0, so provisioning crosses no faulty hop.
    provision(&p.rt, &topology, |_| Some(SiloId(0))).unwrap();
    for step in 0..STEPS {
        work.step(&p, step);
    }
    work.count_faults(&p);
    p.crash();
    work.victim_dead = false;
    work.note("crash and reopen".into(), String::new());

    let p = Platform::boot(&disk, mix64(seed ^ 2));
    for step in STEPS..2 * STEPS {
        work.step(&p, step);
    }
    work.sweep(&p);
    work.count_faults(&p);
    p.rt.shutdown();
    work.out
}

#[test]
fn three_series_stores_answer_one_workload_identically() {
    let seed = aodb_chaos::env_seed(DEFAULT_SEED);
    let _report = SeedReport::new(seed);

    let reference = run_leg(Leg::Reference, seed);
    eprintln!(
        "{} transcript lines, {} silo kills, {} redeliveries, {} injected network faults",
        reference.lines.len(),
        reference.kills,
        reference.redeliveries,
        reference.net_faults
    );
    assert!(reference.kills >= 2, "the workload killed no silo");
    assert!(
        reference.redeliveries > 0,
        "the workload redelivered nothing"
    );
    assert!(reference.net_faults > 0, "the network injected no fault");
    let alerts = reference
        .lines
        .iter()
        .rev()
        .find(|(op, _)| op.starts_with("alerts"));
    assert!(
        alerts.is_some_and(|(_, seen)| !seen.starts_with("0:")),
        "no alert fired"
    );

    for leg in [Leg::Engine, Leg::Wal] {
        let got = run_leg(leg, seed).lines;
        for (i, (want, got)) in reference.lines.iter().zip(&got).enumerate() {
            assert_eq!(
                want, got,
                "{leg:?} diverges from the reference at transcript line {i} (seed {seed:#x})"
            );
        }
        assert_eq!(
            got.len(),
            reference.lines.len(),
            "{leg:?} transcript length (seed {seed:#x})"
        );
    }
}
