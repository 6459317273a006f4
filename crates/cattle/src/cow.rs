//! The `Cow` actor.
//!
//! Per Section 4.1, cows are actors and their collar sensor data is
//! *encapsulated inside* the cow (aggregation relationship in Figure 3):
//! collars are bound to exactly one cow and never act independently, so a
//! separate collar actor would only add messaging.
//!
//! The cow maintains its recent collar window, a down-sampled trajectory
//! (functional requirement 2), geo-fence violations, ownership, and its
//! slaughter status. It participates in ownership-transfer transactions
//! (2PC) and workflows.

use std::collections::VecDeque;

use aodb_core::{Decide, IdempotenceGuard, Prepare, StepResult, TxnLock, Vote, WorkStep};
use aodb_runtime::{Actor, ActorContext, Handler, Message};
use serde::{Deserialize, Serialize};

use crate::env::CattleEnv;
use crate::types::{
    Breed, ChainEvent, ChainEventKind, CollarReading, CowStatus, GeoFence, GeoPoint,
};

/// Registers a cow at a farm.
pub struct InitCow {
    /// Owning farmer key.
    pub farmer: String,
    /// Breed.
    pub breed: Breed,
    /// Birth timestamp (ms).
    pub born_ms: u64,
}
impl Message for InitCow {
    type Reply = ();
}

/// Collar sensor batch (continuous geo/health stream).
pub struct CollarReport {
    /// The readings, oldest first.
    pub readings: Vec<CollarReading>,
}
impl Message for CollarReport {
    type Reply = u32;
}

/// Installs (or clears) the cow's pasture geo-fence.
pub struct SetFence(pub Option<GeoFence>);
impl Message for SetFence {
    type Reply = ();
}

/// The cow's recorded trajectory, oldest first.
#[derive(Clone, Copy)]
pub struct GetTrajectory {
    /// Max points (0 = all retained).
    pub limit: usize,
}
impl Message for GetTrajectory {
    type Reply = Vec<(u64, GeoPoint)>;
}

/// Structured snapshot of the cow.
#[derive(Clone, Copy)]
pub struct GetCowInfo;
impl Message for GetCowInfo {
    type Reply = CowInfo;
}

/// Reply of [`GetCowInfo`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CowInfo {
    /// Current owner (farmer key).
    pub farmer: String,
    /// Breed.
    pub breed: Breed,
    /// Birth timestamp.
    pub born_ms: u64,
    /// Lifecycle status.
    pub status: CowStatus,
    /// Latest collar reading.
    pub last_reading: Option<CollarReading>,
    /// Total collar readings ingested.
    pub total_readings: u64,
    /// Geo-fence violations observed.
    pub fence_violations: u64,
    /// Ownership/lifecycle event log (provenance for tracing).
    pub events: Vec<ChainEvent>,
}

/// Marks the cow slaughtered; replies with the info the slaughterhouse
/// needs to derive cuts. Fails (None) when the cow is already slaughtered.
pub struct MarkSlaughtered {
    /// The slaughterhouse performing the operation.
    pub slaughterhouse: String,
    /// Operation time.
    pub ts_ms: u64,
}
impl Message for MarkSlaughtered {
    type Reply = Option<CowInfo>;
}

#[derive(Serialize, Deserialize)]
pub(crate) struct CowState {
    farmer: String,
    breed: Breed,
    born_ms: u64,
    status: CowStatus,
    fence: Option<GeoFence>,
    fence_violations: u64,
    /// Grid cell currently recorded in the location index.
    #[serde(default)]
    location_cell: Option<String>,
    window: VecDeque<CollarReading>,
    trajectory: VecDeque<(u64, GeoPoint)>,
    total_readings: u64,
    events: Vec<ChainEvent>,
    transfer_guard: IdempotenceGuard,
}

impl Default for CowState {
    fn default() -> Self {
        CowState {
            farmer: String::new(),
            breed: Breed::Angus,
            born_ms: 0,
            status: CowStatus::Alive,
            fence: None,
            fence_violations: 0,
            location_cell: None,
            window: VecDeque::new(),
            trajectory: VecDeque::new(),
            total_readings: 0,
            events: Vec::new(),
            transfer_guard: IdempotenceGuard::new(),
        }
    }
}

/// Collar readings kept in a cow's in-memory window: a day of 10-second
/// collar fixes.
const WINDOW_CAPACITY: usize = 8_640;

/// Trajectory points retained per cow.
const TRAJECTORY_CAPACITY: usize = 4_096;

/// The cow actor.
pub struct Cow {
    state: aodb_core::Persisted<CowState>,
    lock: TxnLock<String>, // pending new owner
}

impl Cow {
    /// Registers the actor type.
    pub fn register(rt: &aodb_runtime::Runtime, env: CattleEnv) {
        rt.register(move |id| Cow {
            state: env.persisted_stream(Self::TYPE_NAME, &id.key),
            lock: TxnLock::new(),
        });
    }

    fn info(&self, _key: &str) -> CowInfo {
        let s = self.state.get();
        CowInfo {
            farmer: s.farmer.clone(),
            breed: s.breed,
            born_ms: s.born_ms,
            status: s.status,
            last_reading: s.window.back().copied(),
            total_readings: s.total_readings,
            fence_violations: s.fence_violations,
            events: s.events.clone(),
        }
    }
}

impl Actor for Cow {
    const TYPE_NAME: &'static str = "cattle.cow";
    fn declared_calls() -> &'static [aodb_runtime::CallDecl] {
        // Collar reports maintain the geo location index
        // (`geo::update_location_index`).
        const CALLS: &[aodb_runtime::CallDecl] =
            &[aodb_runtime::CallDecl::send("aodb.index-shard")];
        CALLS
    }

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<InitCow> for Cow {
    fn handle(&mut self, msg: InitCow, ctx: &mut ActorContext<'_>) {
        let key = ctx.key().to_string();
        self.state.mutate(|s| {
            s.farmer = msg.farmer.clone();
            s.breed = msg.breed;
            s.born_ms = msg.born_ms;
            s.events.push(ChainEvent {
                entity: key,
                kind: ChainEventKind::Born,
                actor: msg.farmer,
                ts_ms: msg.born_ms,
            });
        });
    }
}

impl Handler<CollarReport> for Cow {
    fn handle(&mut self, msg: CollarReport, ctx: &mut ActorContext<'_>) -> u32 {
        let accepted = self.state.mutate(|s| {
            let mut accepted = 0;
            for r in &msg.readings {
                if let Some(fence) = &s.fence {
                    if !fence.contains(&r.position) {
                        s.fence_violations += 1;
                    }
                }
                s.window.push_back(*r);
                if s.window.len() > WINDOW_CAPACITY {
                    s.window.pop_front();
                }
                s.trajectory.push_back((r.ts_ms, r.position));
                if s.trajectory.len() > TRAJECTORY_CAPACITY {
                    s.trajectory.pop_front();
                }
                s.total_readings += 1;
                accepted += 1;
            }
            accepted
        });
        // Keep the spatial index pointing at the cow's current grid cell
        // (eventually consistent; see `crate::geo`).
        if let Some(last) = msg.readings.last() {
            let new_cell = crate::geo::grid_cell(&last.position);
            let old_cell = self.state.get().location_cell.clone();
            if old_cell.as_deref() != Some(new_cell.as_str()) {
                crate::geo::update_location_index(
                    ctx,
                    &ctx.key().to_string(),
                    old_cell.as_deref(),
                    &new_cell,
                );
                self.state.mutate(|s| s.location_cell = Some(new_cell));
            }
        }
        accepted
    }
}

impl Handler<SetFence> for Cow {
    fn handle(&mut self, msg: SetFence, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| s.fence = msg.0);
    }
}

impl Handler<GetTrajectory> for Cow {
    fn handle(&mut self, msg: GetTrajectory, _ctx: &mut ActorContext<'_>) -> Vec<(u64, GeoPoint)> {
        let s = self.state.get();
        let skip = if msg.limit == 0 || s.trajectory.len() <= msg.limit {
            0
        } else {
            s.trajectory.len() - msg.limit
        };
        s.trajectory.iter().skip(skip).copied().collect()
    }
}

impl Handler<GetCowInfo> for Cow {
    fn handle(&mut self, _msg: GetCowInfo, ctx: &mut ActorContext<'_>) -> CowInfo {
        self.info(&ctx.key().to_string())
    }
}

impl Handler<MarkSlaughtered> for Cow {
    fn handle(&mut self, msg: MarkSlaughtered, ctx: &mut ActorContext<'_>) -> Option<CowInfo> {
        if self.state.get().status == CowStatus::Slaughtered {
            return None; // a cow can only be slaughtered once (FR 3)
        }
        let key = ctx.key().to_string();
        self.state.mutate(|s| {
            s.status = CowStatus::Slaughtered;
            s.events.push(ChainEvent {
                entity: key.clone(),
                kind: ChainEventKind::Slaughtered,
                actor: msg.slaughterhouse.clone(),
                ts_ms: msg.ts_ms,
            });
        });
        Some(self.info(&key))
    }
}

// ------------------------------------------------ ownership transfer (2PC)

/// Transaction op schema: `{"action": "set-owner", "new_owner": "..."}`.
impl Handler<Prepare> for Cow {
    fn handle(&mut self, msg: Prepare, _ctx: &mut ActorContext<'_>) -> Vote {
        if self.state.get().status == CowStatus::Slaughtered {
            return Vote::No("cow already slaughtered".into());
        }
        let Some(new_owner) = msg.op.0.get("new_owner").and_then(|v| v.as_str()) else {
            return Vote::No("malformed op: missing new_owner".into());
        };
        self.lock.try_prepare(msg.txn, new_owner.to_string())
    }
}

impl Handler<Decide> for Cow {
    fn handle(&mut self, msg: Decide, ctx: &mut ActorContext<'_>) {
        if let Some(new_owner) = self.lock.decide(&msg.txn, msg.commit) {
            let key = ctx.key().to_string();
            self.state.mutate(|s| {
                let old = std::mem::replace(&mut s.farmer, new_owner);
                let _ = old;
                s.events.push(ChainEvent {
                    entity: key.clone(),
                    kind: ChainEventKind::OwnershipTransferred,
                    actor: s.farmer.clone(),
                    ts_ms: 0,
                });
            });
        }
    }
}

// -------------------------------------------- ownership transfer (workflow)

/// Workflow step schema: `{"action": "set-owner", "new_owner": "..."}`.
impl Handler<WorkStep> for Cow {
    fn handle(&mut self, msg: WorkStep, ctx: &mut ActorContext<'_>) -> StepResult {
        let Some(new_owner) = msg
            .payload
            .get("new_owner")
            .and_then(|v| v.as_str())
            .map(str::to_string)
        else {
            return StepResult::Failed("malformed step: missing new_owner".into());
        };
        let key = ctx.key().to_string();
        // The idempotence-token insertion is a `mutate` of its own, so
        // the token reaches the store under the write policy even on a
        // turn that changes nothing else: a token that never did would
        // let a replay after reactivation double-apply.
        let fresh = self
            .state
            .mutate(|s| s.transfer_guard.first_time(&msg.idempotence));
        if fresh {
            self.state.mutate(|s| {
                if s.farmer != new_owner {
                    s.farmer = new_owner.clone();
                    s.events.push(ChainEvent {
                        entity: key.clone(),
                        kind: ChainEventKind::OwnershipTransferred,
                        actor: new_owner.clone(),
                        ts_ms: 0,
                    });
                }
            });
        }
        StepResult::Done
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{
        assert_codec_roundtrip, breed, chain_event, collar_reading, cow_status, geo_fence,
        geo_point, idempotence_guard, key,
    };
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any cow state survives the persistence codec unchanged — the
        /// widest state in the workspace (collar window, trajectory,
        /// events, geo-fence, idempotence guard).
        #[test]
        fn cow_state_roundtrips(
            (farmer, breed, born_ms, status, fence) in (
                key(),
                breed(),
                any::<u64>(),
                cow_status(),
                proptest::option::of(geo_fence()),
            ),
            (fence_violations, location_cell, window, trajectory) in (
                any::<u64>(),
                proptest::option::of(key()),
                proptest::collection::vec(collar_reading(), 0..5),
                proptest::collection::vec((any::<u64>(), geo_point()), 0..5),
            ),
            (total_readings, events, transfer_guard) in (
                any::<u64>(),
                proptest::collection::vec(chain_event(), 0..5),
                idempotence_guard(),
            ),
        ) {
            assert_codec_roundtrip(&CowState {
                farmer,
                breed,
                born_ms,
                status,
                fence,
                fence_violations,
                location_cell,
                window: window.into(),
                trajectory: trajectory.into(),
                total_readings,
                events,
                transfer_guard,
            });
        }
    }
}
