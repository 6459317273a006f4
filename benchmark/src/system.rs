//! The system under test: the unsimulated SHM stack — real `LogStore`,
//! `TsStore::with_wal`, deferred acks, no simulated service time — on one
//! silo, plus the host fingerprint every result file carries.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aodb_runtime::{Actor, ActorContext, ActorRef, Handler, Message, Runtime, SiloId};
use aodb_shm::{
    provision, register_all, Organization, PhysicalSensorChannel, ShmEnv, Topology, TopologySpec,
    VirtualSensorChannel,
};
use aodb_store::tseries::{SeriesStore, TsConfig, TsStore};
use aodb_store::{FsyncPolicy, LogStore, LogStoreConfig, StateStore, WalConfig};

use crate::trace::{TracedLog, TracedSeries, Tracer};

/// Worker threads of the one silo. Fixed (not `nproc`) so results from
/// hosts of different sizes run the same configuration; the generator is
/// one more thread and the WAL committer another.
pub const WORKERS: usize = 2;

/// File name of the tseries group-commit WAL inside the data directory.
const TS_WAL_FILE: &str = "ingest.wal";

/// A no-op actor the benchmark registers next to the SHM types: a message
/// to it costs exactly one dispatch, one mailbox pass and one reply, which
/// is the runtime layer's own share of every request.
pub struct Probe;

impl Actor for Probe {
    const TYPE_NAME: &'static str = "bench.probe";
}

/// The probe's only message.
pub struct Ping;

impl Message for Ping {
    type Reply = ();
}

impl Handler<Ping> for Probe {
    fn handle(&mut self, _msg: Ping, _ctx: &mut ActorContext<'_>) {}
}

/// Pre-resolved references and keys of the provisioned fleet. Physical
/// channel `i` belongs to sensor `i / 2`; sensors are numbered in
/// topology order (organization-major).
pub struct Fleet {
    /// Per physical channel: its actor reference.
    pub channels: Vec<ActorRef<PhysicalSensorChannel>>,
    /// Per physical channel: its series key in the tseries engine.
    pub series_keys: Vec<String>,
    /// Series keys of the virtual channels.
    pub virtual_series_keys: Vec<String>,
    /// Per organization: its actor reference.
    pub orgs: Vec<ActorRef<Organization>>,
    /// Per organization: every channel key (physical and virtual) a
    /// live-data reply must cover, sorted.
    pub org_channel_keys: Vec<Vec<String>>,
    /// Physical channel key → channel index.
    pub channel_index: HashMap<String, u32>,
}

/// Channels per sensor of the paper's topology.
pub const CHANNELS_PER_SENSOR: u32 = 2;

impl Fleet {
    fn resolve(rt: &Runtime, layout: FleetLayout) -> Fleet {
        let handle = rt.handle_on(SiloId(0));
        Fleet {
            channels: layout
                .channel_keys
                .iter()
                .map(|k| handle.actor_ref::<PhysicalSensorChannel>(k.as_str()))
                .collect(),
            series_keys: layout.series_keys(),
            virtual_series_keys: layout
                .virtual_keys
                .iter()
                .map(|k| series_key::<VirtualSensorChannel>(k))
                .collect(),
            orgs: layout
                .org_keys
                .iter()
                .map(|k| handle.actor_ref::<Organization>(k.as_str()))
                .collect(),
            channel_index: layout
                .channel_keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), i as u32))
                .collect(),
            org_channel_keys: layout.org_channel_keys,
        }
    }
}

/// Series name of a channel's point stream in the tseries engine (the
/// platform prefixes the actor key with the actor type).
fn series_key<A: Actor>(channel_key: &str) -> String {
    format!("{}/{channel_key}", A::TYPE_NAME)
}

/// The runtime-independent part of a [`Fleet`].
#[derive(Default)]
pub struct FleetLayout {
    /// Physical channel keys, channel-index order.
    pub channel_keys: Vec<String>,
    /// Virtual channel keys.
    pub virtual_keys: Vec<String>,
    /// Organization keys.
    pub org_keys: Vec<String>,
    /// Per organization: sorted keys of all its channels.
    pub org_channel_keys: Vec<Vec<String>>,
    /// Sensor indices in the order ingest visits them: round-robin across
    /// organizations, because real sensors report independently and a
    /// sweep organization by organization would fabricate bursts.
    pub sensor_order: Vec<u32>,
}

impl FleetLayout {
    /// Keys and visiting order for `topology`, without a runtime: what the
    /// seeded request stream needs.
    pub fn of(topology: &Topology) -> FleetLayout {
        assert_eq!(
            topology.spec.channels_per_sensor, CHANNELS_PER_SENSOR as usize,
            "the request stream assumes the paper's two channels per sensor"
        );
        let mut layout = FleetLayout::default();
        let mut per_org: Vec<Vec<u32>> = Vec::new();
        let mut sensor = 0u32;
        for org in &topology.orgs {
            let mut org_keys = Vec::new();
            let mut org_sensors = Vec::new();
            for s in &org.sensors {
                for key in &s.physical {
                    layout.channel_keys.push(key.clone());
                    org_keys.push(key.clone());
                }
                if let Some(v) = &s.virtual_channel {
                    layout.virtual_keys.push(v.clone());
                    org_keys.push(v.clone());
                }
                org_sensors.push(sensor);
                sensor += 1;
            }
            org_keys.sort();
            layout.org_keys.push(org.key.clone());
            layout.org_channel_keys.push(org_keys);
            per_org.push(org_sensors);
        }
        let longest = per_org.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for org_sensors in &per_org {
                if let Some(&s) = org_sensors.get(i) {
                    layout.sensor_order.push(s);
                }
            }
        }
        layout
    }

    /// Per physical channel: its series key in the tseries engine.
    pub fn series_keys(&self) -> Vec<String> {
        self.channel_keys
            .iter()
            .map(|k| series_key::<PhysicalSensorChannel>(k))
            .collect()
    }
}

/// How long the two recovery steps of an open took.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenTimings {
    /// `LogStore::open`: snapshot load and log replay.
    pub log_open_s: f64,
    /// `TsStore::with_wal`: WAL read and delta decode.
    pub wal_replay_s: f64,
    /// Bytes of `snapshot.db` + `wal.log` the open read.
    pub log_bytes: u64,
}

/// One running instance of the stack over a data directory.
pub struct Stack {
    /// The runtime: one silo of [`WORKERS`] workers.
    pub rt: Runtime,
    /// The durable KV store (actor state blobs and tseries records).
    pub log: Arc<LogStore>,
    /// The tseries engine in group-commit mode over `log`.
    pub ts: Arc<TsStore>,
    /// The fleet layout.
    pub topology: Topology,
    /// Resolved references.
    pub fleet: Arc<Fleet>,
}

impl Stack {
    /// Opens (or creates) the stack over `dir` and registers the actor
    /// types. With a tracer the two store seams are wrapped.
    pub fn open(
        dir: &Path,
        sensors: usize,
        spec: TopologySpec,
        fsync: FsyncPolicy,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(Stack, OpenTimings), String> {
        let log_bytes = ["snapshot.db", "wal.log"]
            .iter()
            .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
            .map(|m| m.len())
            .sum();
        let t0 = Instant::now();
        let log = Arc::new(
            LogStore::open(LogStoreConfig::new(dir)).map_err(|e| format!("open log store: {e}"))?,
        );
        let log_open_s = t0.elapsed().as_secs_f64();

        let backing: Arc<dyn StateStore> = match tracer {
            Some(t) => Arc::new(TracedLog::new(Arc::clone(&log), Arc::clone(t))),
            None => Arc::clone(&log) as _,
        };
        let t1 = Instant::now();
        let ts = Arc::new(
            TsStore::with_wal(
                Arc::clone(&backing),
                TsConfig::default(),
                dir.join(TS_WAL_FILE),
                WalConfig {
                    fsync_policy: fsync,
                    ..WalConfig::default()
                },
            )
            .map_err(|e| format!("open tseries wal: {e}"))?,
        );
        let wal_replay_s = t1.elapsed().as_secs_f64();

        let series: Arc<dyn SeriesStore> = match tracer {
            Some(t) => Arc::new(TracedSeries::new(Arc::clone(&ts), Arc::clone(t))),
            None => Arc::clone(&ts) as _,
        };
        let mut env = ShmEnv::paper_default(Arc::clone(&backing)).with_series_store(series);
        env.deferred_acks = true;

        // One durability barrier per deactivation sweep, as the platform
        // wires it: shutdown flushes every activation with deferred puts.
        let sweep_store = Arc::clone(&backing);
        let rt = Runtime::builder()
            .silos(1, WORKERS)
            .on_deactivation_sweep(move || {
                let _ = sweep_store.sync();
            })
            .build();
        register_all(&rt, env);
        rt.register(|_id| Probe);

        let topology = Topology::layout(sensors, spec);
        let fleet = Arc::new(Fleet::resolve(&rt, FleetLayout::of(&topology)));
        Ok((
            Stack {
                rt,
                log,
                ts,
                topology,
                fleet,
            },
            OpenTimings {
                log_open_s,
                wal_replay_s,
                log_bytes,
            },
        ))
    }

    /// Creates every actor of the topology (first start of a data dir).
    pub fn provision(&self) -> Result<(), String> {
        provision(&self.rt, &self.topology, |_org| Some(SiloId(0)))
            .map_err(|e| format!("provision: {e}"))
    }

    /// A reference to probe actor number `n`.
    pub fn probe(&self, n: u64) -> ActorRef<Probe> {
        self.rt.handle_on(SiloId(0)).actor_ref::<Probe>(n)
    }

    /// Clean shutdown *without* a tseries checkpoint: activations flush
    /// their state blobs, the WAL keeps its delta frames, so the next
    /// open replays both logs.
    pub fn shutdown(self) {
        let Stack { rt, log, ts, .. } = self;
        rt.shutdown();
        drop(ts); // joins the WAL committer
        drop(log);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// What a result file records about the host, so a drift between two
/// files can be read as host or code.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Filesystem type and device of the data directory.
    pub data_fs: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Filesystem type and device of the mount that holds `path`, from
/// `/proc/mounts` (longest mount-point prefix wins).
fn filesystem_of(path: &Path) -> String {
    let Ok(canon) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            canon
                .starts_with(point)
                .then(|| (point.len(), format!("{fs} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, desc)| desc)
}

impl Fingerprint {
    /// Collects the fingerprint; `data_dir` must exist.
    pub fn collect(data_dir: &Path) -> Fingerprint {
        Fingerprint {
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            data_fs: filesystem_of(data_dir),
        }
    }
}
