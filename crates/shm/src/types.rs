//! Domain types of the Structural Health Monitoring platform.
//!
//! These mirror the paper's Figure 4: actors (`Organization`, `Sensor`,
//! `PhysicalSensorChannel`, `VirtualSensorChannel`, `Aggregator`) and the
//! *non-actor objects* they encapsulate (`Project`, `User`, `DataPoint`,
//! alerts) — the paper's second modeling principle in action: projects and
//! users are passive, so they live inside `Organization` state rather than
//! as actors.

use serde::{Deserialize, Serialize};

/// One sensor reading: timestamp (ms since epoch or experiment start) and
/// value (the unit depends on the channel: strain, inclination, °C, m/s…).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Sample timestamp in milliseconds.
    pub ts_ms: u64,
    /// Measured value.
    pub value: f64,
}

/// A shared, immutable batch of data points.
///
/// Ingest batches fan out along the hot path — channel → subscribed
/// virtual channels — and each hop used to deep-copy the `Vec`. A `PointBatch` is an `Arc`'d slice: cloning is a refcount
/// bump, so one allocation made at the gateway serves every hop (and the
/// chaos layer's replay copies). Dereferences to `[DataPoint]`;
/// serializes exactly like a plain sequence of points, so the persisted
/// format is unchanged.
#[derive(Clone, Debug)]
pub struct PointBatch(std::sync::Arc<[DataPoint]>);

impl PointBatch {
    /// Wraps a vector of points (single allocation move, no copy).
    pub fn new(points: Vec<DataPoint>) -> Self {
        PointBatch(points.into())
    }

    /// The points as a slice.
    pub fn as_slice(&self) -> &[DataPoint] {
        &self.0
    }
}

impl Default for PointBatch {
    fn default() -> Self {
        PointBatch(std::sync::Arc::from(&[] as &[DataPoint]))
    }
}

impl std::ops::Deref for PointBatch {
    type Target = [DataPoint];
    fn deref(&self) -> &[DataPoint] {
        &self.0
    }
}

impl PartialEq for PointBatch {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<DataPoint>> for PointBatch {
    fn from(points: Vec<DataPoint>) -> Self {
        PointBatch::new(points)
    }
}

impl From<&[DataPoint]> for PointBatch {
    fn from(points: &[DataPoint]) -> Self {
        PointBatch(std::sync::Arc::from(points))
    }
}

impl FromIterator<DataPoint> for PointBatch {
    fn from_iter<I: IntoIterator<Item = DataPoint>>(iter: I) -> Self {
        PointBatch(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a PointBatch {
    type Item = &'a DataPoint;
    type IntoIter = std::slice::Iter<'a, DataPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Serialize for PointBatch {
    fn json_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|p| p.json_value()).collect())
    }
}

impl Deserialize for PointBatch {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<DataPoint>::from_json_value(v).map(PointBatch::new)
    }
}

/// A passive construction-monitoring project owned by an organization
/// (non-actor object).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Project {
    /// Project id unique within the organization.
    pub id: u32,
    /// Display name, e.g. `"Great Belt Bridge"`.
    pub name: String,
    /// The monitored structure.
    pub structure: String,
}

/// A platform user belonging to an organization (non-actor object).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct User {
    /// User id unique within the organization.
    pub id: u32,
    /// Display name.
    pub name: String,
    /// Role for access control (engineer, analyst, maintenance).
    pub role: UserRole,
}

/// Stakeholder roles from the paper's context diagram (Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserRole {
    /// Engineering expert monitoring the structure.
    Engineer,
    /// Data analyst exploring time series.
    Analyst,
    /// Maintenance personnel managing monitoring projects.
    Maintenance,
}

/// Threshold rule attached to a sensor channel (functional requirement 5:
/// customized alerts when thresholds are met).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct Threshold {
    /// Alert when a value rises above this.
    pub high: Option<f64>,
    /// Alert when a value falls below this.
    pub low: Option<f64>,
    /// Alert when the accumulated absolute change exceeds this
    /// (extension sensors: "how far elements have moved").
    pub max_accumulated_change: Option<f64>,
}

/// Severity of an alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertSeverity {
    /// Attention-worthy event.
    Warning,
    /// Threshold breach requiring action.
    Critical,
}

/// An alert raised by a channel (non-actor object stored in the
/// organization's alert log).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The channel that raised the alert.
    pub channel: String,
    /// When the offending sample was taken.
    pub ts_ms: u64,
    /// The offending value.
    pub value: f64,
    /// Which rule fired.
    pub kind: AlertKind,
    /// Severity.
    pub severity: AlertSeverity,
}

/// Which threshold rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertKind {
    /// Value above the high threshold.
    AboveHigh,
    /// Value below the low threshold.
    BelowLow,
    /// Accumulated change beyond its limit.
    AccumulatedChange,
}

/// What physical quantity a sensor measures (the paper's bridge examples).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorKind {
    /// Joint extension / displacement.
    Extension,
    /// Inclination.
    Inclination,
    /// Temperature.
    Temperature,
    /// Wind speed.
    WindSpeed,
    /// Wind direction.
    WindDirection,
}

/// Physical placement of a sensor on the structure; sensors may be
/// relocated (hence `Sensor` is an actor, per Section 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct Position {
    /// Structure-local coordinates in meters.
    pub x: f64,
    /// See `x`.
    pub y: f64,
    /// See `x`.
    pub z: f64,
}

/// The computation a virtual sensor channel applies over its input
/// channels (paper: "an equation merging the data from accelerometer and
/// microphone sensor channels"; the experiments use summation).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Equation {
    /// Sum of the latest values of all inputs (the paper's benchmark
    /// configuration).
    Sum,
    /// Arithmetic mean of the latest values.
    Mean,
    /// First input minus second input (differential sensors).
    Difference,
    /// Weighted sum; weights align with the input order.
    WeightedSum(Vec<f64>),
}

impl Equation {
    /// Applies the equation to the latest value of each input (inputs with
    /// no data yet are skipped; `None` when no input has data).
    pub fn apply(&self, latest: &[Option<f64>]) -> Option<f64> {
        let present: Vec<f64> = latest.iter().copied().flatten().collect();
        if present.is_empty() {
            return None;
        }
        match self {
            Equation::Sum => Some(present.iter().sum()),
            Equation::Mean => Some(present.iter().sum::<f64>() / present.len() as f64),
            Equation::Difference => match (
                latest.first().copied().flatten(),
                latest.get(1).copied().flatten(),
            ) {
                (Some(a), Some(b)) => Some(a - b),
                (Some(a), None) => Some(a),
                _ => None,
            },
            Equation::WeightedSum(weights) => Some(
                latest
                    .iter()
                    .zip(weights.iter().chain(std::iter::repeat(&1.0)))
                    .filter_map(|(v, w)| v.map(|v| v * w))
                    .sum(),
            ),
        }
    }
}

/// Aggregation granularity for statistical plots (functional
/// requirement 6: "per hour, day, or month"). Every level folds the
/// channel's series at its own width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateLevel {
    /// Hourly buckets.
    Hour,
    /// Daily buckets.
    Day,
    /// 30-day buckets (a fixed-width "month" keeps bucket math exact).
    Month,
}

impl AggregateLevel {
    /// Bucket width in milliseconds.
    pub fn bucket_ms(self) -> u64 {
        match self {
            AggregateLevel::Hour => 3_600_000,
            AggregateLevel::Day => 86_400_000,
            AggregateLevel::Month => 30 * 86_400_000,
        }
    }

    /// Start of the bucket containing `ts_ms`.
    pub fn bucket_start(self, ts_ms: u64) -> u64 {
        ts_ms - ts_ms % self.bucket_ms()
    }

    /// Key suffix used in aggregator actor keys.
    pub fn suffix(self) -> &'static str {
        match self {
            AggregateLevel::Hour => "hour",
            AggregateLevel::Day => "day",
            AggregateLevel::Month => "month",
        }
    }

    /// Parses a key suffix.
    pub fn from_suffix(s: &str) -> Option<AggregateLevel> {
        match s {
            "hour" => Some(AggregateLevel::Hour),
            "day" => Some(AggregateLevel::Day),
            "month" => Some(AggregateLevel::Month),
            _ => None,
        }
    }
}

/// Mergeable statistical summary of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Number of samples.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Sum of squared values (for variance).
    pub sum_sq: f64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum_sq: 0.0,
        }
    }
}

impl Aggregate {
    /// Summary of a single sample.
    pub fn of(value: f64) -> Aggregate {
        Aggregate {
            count: 1,
            sum: value,
            min: value,
            max: value,
            sum_sq: value * value,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum_sq += value * value;
    }

    /// Merges another summary (e.g. warehouse rows into a roll-up).
    pub fn merge(&mut self, other: &Aggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum_sq += other.sum_sq;
    }

    /// Mean value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance, `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        self.mean()
            .map(|m| (self.sum_sq / self.count as f64 - m * m).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_record_and_stats() {
        let mut a = Aggregate::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            a.record(v);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.mean(), Some(2.5));
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert!((a.variance().unwrap() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn aggregate_merge_equals_combined_record() {
        let mut left = Aggregate::default();
        let mut right = Aggregate::default();
        let mut combined = Aggregate::default();
        for v in [1.0, 5.0, -3.0] {
            left.record(v);
            combined.record(v);
        }
        for v in [2.0, 8.0] {
            right.record(v);
            combined.record(v);
        }
        left.merge(&right);
        assert_eq!(left, combined);
    }

    #[test]
    fn empty_aggregate_has_no_mean() {
        assert_eq!(Aggregate::default().mean(), None);
        assert_eq!(Aggregate::default().variance(), None);
    }

    #[test]
    fn bucket_math() {
        let lvl = AggregateLevel::Hour;
        assert_eq!(lvl.bucket_start(3_599_999), 0);
        assert_eq!(lvl.bucket_start(3_600_000), 3_600_000);
        assert_eq!(AggregateLevel::Day.bucket_start(90_000_000), 86_400_000);
    }

    #[test]
    fn level_suffix_roundtrip() {
        for lvl in [
            AggregateLevel::Hour,
            AggregateLevel::Day,
            AggregateLevel::Month,
        ] {
            assert_eq!(AggregateLevel::from_suffix(lvl.suffix()), Some(lvl));
        }
    }

    #[test]
    fn equation_sum_and_mean() {
        let latest = [Some(1.0), Some(2.0), None];
        assert_eq!(Equation::Sum.apply(&latest), Some(3.0));
        assert_eq!(Equation::Mean.apply(&latest), Some(1.5));
        assert_eq!(Equation::Sum.apply(&[None, None]), None);
    }

    #[test]
    fn equation_difference() {
        assert_eq!(
            Equation::Difference.apply(&[Some(5.0), Some(2.0)]),
            Some(3.0)
        );
        assert_eq!(Equation::Difference.apply(&[Some(5.0), None]), Some(5.0));
        assert_eq!(Equation::Difference.apply(&[None, Some(2.0)]), None);
    }

    #[test]
    fn equation_weighted_sum() {
        let eq = Equation::WeightedSum(vec![2.0, 0.5]);
        assert_eq!(eq.apply(&[Some(3.0), Some(4.0)]), Some(8.0));
    }
}
