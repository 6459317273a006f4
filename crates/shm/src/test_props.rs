//! Shared proptest strategies and the codec round-trip assertion for the
//! persisted-state tests (the `codec_tests` modules next to each state
//! type).
//!
//! Every `Persisted<T>` blob goes through `aodb_store::codec`, so
//! "decode (encode s) == s" over arbitrary states is exactly the
//! crash-recovery property: any state a crash can leave in the store
//! must reactivate unchanged.

use proptest::prelude::*;

use crate::types::{
    Alert, AlertKind, AlertSeverity, DataPoint, Equation, Position, Project, SensorKind, Threshold,
    User, UserRole,
};

/// Encodes with the store codec, decodes, and compares canonically
/// (`serde_json::Value` is `BTreeMap`-backed, so the comparison is
/// field-order-insensitive but misses nothing — including every float
/// bit pattern the strategies produce).
pub(crate) fn assert_codec_roundtrip<T>(state: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let bytes = aodb_store::codec::encode_state(state).expect("state must encode");
    let back: T = aodb_store::codec::decode_state(&bytes).expect("state must decode");
    assert_eq!(
        serde_json::to_value(state).expect("canonical form"),
        serde_json::to_value(&back).expect("canonical form"),
        "state drifted across the persistence codec"
    );
}

/// Actor-key-shaped strings, including the empty string.
pub(crate) fn key() -> impl Strategy<Value = String> {
    "[a-z0-9/_-]{0,12}"
}

/// Arbitrary sample with a finite value.
pub(crate) fn data_point() -> impl Strategy<Value = DataPoint> {
    (any::<u64>(), -1e9f64..1e9).prop_map(|(ts_ms, value)| DataPoint { ts_ms, value })
}

/// Any combination of threshold rules.
pub(crate) fn threshold() -> impl Strategy<Value = Threshold> {
    (
        proptest::option::of(-1e6f64..1e6),
        proptest::option::of(-1e6f64..1e6),
        proptest::option::of(0.0f64..1e6),
    )
        .prop_map(|(high, low, max_accumulated_change)| Threshold {
            high,
            low,
            max_accumulated_change,
        })
}

/// A mounting position anywhere on the structure.
pub(crate) fn position() -> impl Strategy<Value = Position> {
    (-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4).prop_map(|(x, y, z)| Position { x, y, z })
}

/// Every sensor kind.
pub(crate) fn sensor_kind() -> impl Strategy<Value = SensorKind> {
    prop_oneof![
        Just(SensorKind::Extension),
        Just(SensorKind::Inclination),
        Just(SensorKind::Temperature),
        Just(SensorKind::WindSpeed),
        Just(SensorKind::WindDirection),
    ]
}

/// A platform user with any role.
pub(crate) fn user() -> impl Strategy<Value = User> {
    (
        any::<u32>(),
        key(),
        prop_oneof![
            Just(UserRole::Engineer),
            Just(UserRole::Analyst),
            Just(UserRole::Maintenance),
        ],
    )
        .prop_map(|(id, name, role)| User { id, name, role })
}

/// A monitoring project.
pub(crate) fn project() -> impl Strategy<Value = Project> {
    (any::<u32>(), key(), key()).prop_map(|(id, name, structure)| Project {
        id,
        name,
        structure,
    })
}

/// An alert of any kind and severity.
pub(crate) fn alert() -> impl Strategy<Value = Alert> {
    (
        key(),
        any::<u64>(),
        -1e9f64..1e9,
        prop_oneof![
            Just(AlertKind::AboveHigh),
            Just(AlertKind::BelowLow),
            Just(AlertKind::AccumulatedChange),
        ],
        prop_oneof![Just(AlertSeverity::Warning), Just(AlertSeverity::Critical)],
    )
        .prop_map(|(channel, ts_ms, value, kind, severity)| Alert {
            channel,
            ts_ms,
            value,
            kind,
            severity,
        })
}

/// Every equation variant, including weighted sums of any arity.
pub(crate) fn equation() -> impl Strategy<Value = Equation> {
    prop_oneof![
        Just(Equation::Sum),
        Just(Equation::Mean),
        Just(Equation::Difference),
        proptest::collection::vec(-10.0f64..10.0, 0..4).prop_map(Equation::WeightedSum),
    ]
}
