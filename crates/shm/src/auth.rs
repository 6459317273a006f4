//! Tenant authentication and access control (non-functional
//! requirement 7).
//!
//! The paper implements access control "at the application level by
//! building on actor modularity": each tenant's credentials live in a
//! per-organization guard actor, so authentication state is isolated
//! exactly like every other tenant resource — there is no shared user
//! table to misconfigure. [`SecureShmClient`] wraps the platform client
//! and refuses queries whose session token does not belong to the target
//! organization with a sufficient role.

use std::collections::BTreeMap;

use aodb_runtime::{Actor, ActorContext, Handler, Message, Runtime};
use serde::{Deserialize, Serialize};

use crate::env::ShmEnv;
use crate::messages::LiveDataReport;
use crate::platform::ShmClient;
use crate::types::{Alert, DataPoint, UserRole};
use aodb_core::Persisted;

/// Access levels, ordered: an `Admin` can do everything an `Operator`
/// can, who can do everything a `Viewer` can.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccessLevel {
    /// Read-only dashboards (live data, plots).
    Viewer,
    /// Operations: raw data exploration, alert management.
    Operator,
    /// Tenant administration.
    Admin,
}

impl From<UserRole> for AccessLevel {
    fn from(role: UserRole) -> Self {
        match role {
            UserRole::Engineer => AccessLevel::Operator,
            UserRole::Analyst => AccessLevel::Operator,
            UserRole::Maintenance => AccessLevel::Admin,
        }
    }
}

/// A session token: opaque to clients, validated by the tenant's guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SessionToken(pub u64);

/// Registers a user with a shared secret (provisioning-time, admin-only
/// in a real deployment).
pub struct GrantAccess {
    /// User name.
    pub user: String,
    /// Shared secret.
    pub secret: String,
    /// Granted level.
    pub level: AccessLevel,
}
impl Message for GrantAccess {
    type Reply = ();
}

/// Exchanges credentials for a session token.
pub struct Authenticate {
    /// User name.
    pub user: String,
    /// Shared secret.
    pub secret: String,
}
impl Message for Authenticate {
    type Reply = Option<SessionToken>;
}

/// Validates a token, returning the session's user and level.
pub struct Validate(pub SessionToken);
impl Message for Validate {
    type Reply = Option<(String, AccessLevel)>;
}

/// Revokes a session.
pub struct Revoke(pub SessionToken);
impl Message for Revoke {
    type Reply = bool;
}

#[derive(Default, Serialize, Deserialize)]
struct GuardState {
    /// user → (secret, level).
    users: BTreeMap<String, (String, AccessLevel)>,
    /// Live sessions. Persisted so sessions survive guard deactivation.
    sessions: BTreeMap<u64, (String, AccessLevel)>,
    next_token: u64,
}

/// Per-organization access-control guard actor. Key = organization key.
pub struct TenantGuard {
    state: Persisted<GuardState>,
}

impl TenantGuard {
    /// Registers the guard actor type.
    pub fn register(rt: &Runtime, env: ShmEnv) {
        rt.register(move |id| TenantGuard {
            state: env.persisted_structural(Self::TYPE_NAME, &id.key),
        });
    }
}

impl Actor for TenantGuard {
    const TYPE_NAME: &'static str = "shm.tenant-guard";

    fn on_activate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.load_or_default();
    }

    fn on_deactivate(&mut self, _ctx: &mut ActorContext<'_>) {
        self.state.flush();
    }
}

impl Handler<GrantAccess> for TenantGuard {
    fn handle(&mut self, msg: GrantAccess, _ctx: &mut ActorContext<'_>) {
        self.state.mutate(|s| {
            s.users.insert(msg.user, (msg.secret, msg.level));
        });
    }
}

impl Handler<Authenticate> for TenantGuard {
    fn handle(&mut self, msg: Authenticate, ctx: &mut ActorContext<'_>) -> Option<SessionToken> {
        let level = {
            let s = self.state.get();
            match s.users.get(&msg.user) {
                Some((secret, level)) if *secret == msg.secret => *level,
                _ => return None,
            }
        };
        // Token = per-tenant counter mixed with the tenant identity hash,
        // so tokens from different tenants can never collide or be
        // replayed across organizations.
        let tenant_hash = ctx.actor_id().stable_hash();
        Some(SessionToken(self.state.mutate(|s| {
            s.next_token += 1;
            let token = tenant_hash ^ (s.next_token << 16) ^ 0xA11C_E5E5;
            s.sessions.insert(token, (msg.user.clone(), level));
            token
        })))
    }
}

impl Handler<Validate> for TenantGuard {
    fn handle(
        &mut self,
        msg: Validate,
        _ctx: &mut ActorContext<'_>,
    ) -> Option<(String, AccessLevel)> {
        self.state.get().sessions.get(&msg.0 .0).cloned()
    }
}

impl Handler<Revoke> for TenantGuard {
    fn handle(&mut self, msg: Revoke, _ctx: &mut ActorContext<'_>) -> bool {
        self.state
            .mutate(|s| s.sessions.remove(&msg.0 .0).is_some())
    }
}

/// Why a secured call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// Token unknown to this tenant (wrong tenant or revoked).
    InvalidToken,
    /// Token valid but the level is insufficient for the operation.
    Forbidden {
        /// Level required by the operation.
        required: AccessLevel,
        /// Level the session has.
        held: AccessLevel,
    },
    /// The platform itself failed.
    Platform(String),
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::InvalidToken => write!(f, "invalid or revoked session token"),
            AccessError::Forbidden { required, held } => {
                write!(f, "requires {required:?}, session holds {held:?}")
            }
            AccessError::Platform(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for AccessError {}

/// An authenticated, tenant-scoped view of the platform. Every call
/// validates the session against the *target organization's* guard, so a
/// token stolen from tenant A is useless against tenant B.
pub struct SecureShmClient {
    client: ShmClient,
    org: String,
    token: SessionToken,
}

const WAIT: std::time::Duration = std::time::Duration::from_secs(10);

impl SecureShmClient {
    /// Authenticates against `org`'s guard; fails on bad credentials.
    pub fn login(
        client: ShmClient,
        org: &str,
        user: &str,
        secret: &str,
    ) -> Result<SecureShmClient, AccessError> {
        let guard = client
            .handle()
            .try_actor_ref::<TenantGuard>(org)
            .map_err(|e| AccessError::Platform(e.to_string()))?;
        let token = guard
            .ask(Authenticate {
                user: user.into(),
                secret: secret.into(),
            })
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .ok_or(AccessError::InvalidToken)?;
        Ok(SecureShmClient {
            client,
            org: org.to_string(),
            token,
        })
    }

    /// The session token (for diagnostics).
    pub fn token(&self) -> SessionToken {
        self.token
    }

    fn authorize(&self, required: AccessLevel) -> Result<(), AccessError> {
        let guard = self
            .client
            .handle()
            .try_actor_ref::<TenantGuard>(self.org.as_str())
            .map_err(|e| AccessError::Platform(e.to_string()))?;
        let (_, held) = guard
            .ask(Validate(self.token))
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .ok_or(AccessError::InvalidToken)?;
        if held < required {
            return Err(AccessError::Forbidden { required, held });
        }
        Ok(())
    }

    fn channel_in_tenant(&self, channel: &str) -> Result<(), AccessError> {
        // Channel keys embed the organization prefix (`org-1/s-3/c-0`), so
        // tenant scoping is a structural check, not a lookup.
        if channel.starts_with(&format!("{}/", self.org)) {
            Ok(())
        } else {
            Err(AccessError::InvalidToken)
        }
    }

    /// Live view of this tenant's channels (Viewer+).
    pub fn live_data(&self) -> Result<LiveDataReport, AccessError> {
        self.authorize(AccessLevel::Viewer)?;
        self.client
            .live_data(&self.org)
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))
    }

    /// Raw time-range query on one of this tenant's channels (Operator+).
    pub fn raw_range(
        &self,
        channel: &str,
        from_ms: u64,
        to_ms: u64,
    ) -> Result<Vec<DataPoint>, AccessError> {
        self.authorize(AccessLevel::Operator)?;
        self.channel_in_tenant(channel)?;
        self.client
            .raw_range(channel, from_ms, to_ms, 0)
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))
    }

    /// Recent alerts of this tenant (Operator+).
    pub fn recent_alerts(&self, limit: usize) -> Result<Vec<Alert>, AccessError> {
        self.authorize(AccessLevel::Operator)?;
        self.client
            .recent_alerts(&self.org, limit)
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))
    }

    /// Logs the session out.
    pub fn logout(self) -> Result<bool, AccessError> {
        let guard = self
            .client
            .handle()
            .try_actor_ref::<TenantGuard>(self.org.as_str())
            .map_err(|e| AccessError::Platform(e.to_string()))?;
        guard
            .ask(Revoke(self.token))
            .map_err(|e| AccessError::Platform(e.to_string()))?
            .wait_for(WAIT)
            .map_err(|e| AccessError::Platform(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_levels_are_ordered() {
        assert!(AccessLevel::Viewer < AccessLevel::Operator);
        assert!(AccessLevel::Operator < AccessLevel::Admin);
    }

    #[test]
    fn roles_map_to_levels() {
        assert_eq!(AccessLevel::from(UserRole::Maintenance), AccessLevel::Admin);
        assert_eq!(AccessLevel::from(UserRole::Engineer), AccessLevel::Operator);
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::test_props::{assert_codec_roundtrip, key};
    use proptest::prelude::*;

    fn access_level() -> impl Strategy<Value = AccessLevel> {
        prop_oneof![
            Just(AccessLevel::Viewer),
            Just(AccessLevel::Operator),
            Just(AccessLevel::Admin),
        ]
    }

    /// A guard blob written when both maps were `HashMap`s decodes, and
    /// re-encodes byte for byte: the JSON object sorts its keys as
    /// strings, so the map type never reached the stored bytes.
    #[test]
    fn hashmap_era_guard_blob_reencodes_identically() {
        const OLD: &str = concat!(
            r#"{"next_token":101,"#,
            r#""sessions":{"10":["root","Admin"],"100":["bob","Operator"],"9":["alice","Viewer"]},"#,
            r#""users":{"alice":["pw","Viewer"],"bob":["hunter2","Operator"],"root":["s3cret","Admin"]}}"#,
        );
        let state: GuardState = aodb_store::codec::decode_state(OLD.as_bytes()).unwrap();
        assert_eq!(state.next_token, 101);
        assert_eq!(
            state.sessions.keys().copied().collect::<Vec<_>>(),
            [9, 10, 100]
        );
        assert_eq!(
            state.users.get("bob"),
            Some(&("hunter2".to_string(), AccessLevel::Operator))
        );
        let bytes = aodb_store::codec::encode_state(&state).unwrap();
        assert_eq!(bytes.as_ref(), OLD.as_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any guard state survives the persistence codec unchanged —
        /// sessions keyed by u64 tokens included, so auth state (and the
        /// sessions it keeps alive) survives silo crashes.
        #[test]
        fn guard_state_roundtrips(
            users in proptest::collection::vec((key(), (key(), access_level())), 0..5),
            sessions in proptest::collection::vec((any::<u64>(), (key(), access_level())), 0..5),
            next_token in any::<u64>(),
        ) {
            assert_codec_roundtrip(&GuardState {
                users: users.into_iter().collect(),
                sessions: sessions.into_iter().collect(),
                next_token,
            });
        }
    }
}
