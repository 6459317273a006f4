//! The `AlertLog` actor: one per organization, collecting threshold
//! alerts raised by that organization's channels (functional
//! requirement 5: customized alerts to users when thresholds are met).
//!
//! A separate actor (keyed by the organization key) keeps alert traffic
//! off the organization actor, which serves structural queries and
//! live-data reports.

use std::collections::VecDeque;

use aodb_runtime::{Actor, ActorContext, Handler};
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::{CountAlerts, PushAlert, RecentAlerts};
use crate::types::Alert;
use aodb_core::Persisted;

/// Alerts retained in the log (newest win).
const MAX_ALERTS: usize = 1024;

#[derive(Default, Serialize, Deserialize)]
struct AlertLogState {
    recent: VecDeque<Alert>,
    total: u64,
}

/// The per-organization alert log actor.
pub struct AlertLog {
    state: Persisted<AlertLogState>,
}

impl AlertLog {
    /// Registers the actor type. Keys are organization keys.
    pub fn register(rt: &aodb_runtime::Runtime, env: ShmEnv) {
        rt.register(move |id| AlertLog {
            state: env.persisted(Self::TYPE_NAME, &id.key),
        });
    }
}

impl Actor for AlertLog {
    const TYPE_NAME: &'static str = "shm.alert-log";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<PushAlert> for AlertLog {
    fn handle(&mut self, msg: PushAlert, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.recent.push_back(msg.0);
            if s.recent.len() > MAX_ALERTS {
                s.recent.pop_front();
            }
            s.total += 1;
        });
    }
}

impl Handler<RecentAlerts> for AlertLog {
    fn handle(&mut self, msg: RecentAlerts, _ctx: &mut ActorContext<'_>) -> Vec<Alert> {
        let s = self.state.get();
        s.recent
            .iter()
            .rev()
            .take(if msg.limit == 0 {
                usize::MAX
            } else {
                msg.limit
            })
            .cloned()
            .collect()
    }
}

impl Handler<CountAlerts> for AlertLog {
    fn handle(&mut self, _msg: CountAlerts, _ctx: &mut ActorContext<'_>) -> u64 {
        self.state.get().total
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{alert, assert_codec_roundtrip};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any alert-log state survives the persistence codec unchanged.
        #[test]
        fn alert_log_state_roundtrips(
            recent in proptest::collection::vec(alert(), 0..8),
            total in any::<u64>(),
        ) {
            assert_codec_roundtrip(&AlertLogState { recent: recent.into(), total });
        }
    }
}
