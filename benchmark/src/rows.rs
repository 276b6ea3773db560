//! Metric rows: name → value.

use serde_json::Value;
use std::collections::BTreeMap;

/// Metric name → value, in name order.
pub type Rows = BTreeMap<String, f64>;

/// Sets one row.
pub fn put(rows: &mut Rows, name: &str, value: f64) {
    rows.insert(name.to_string(), value);
}

/// The rows as a JSON object.
pub fn to_json(rows: &Rows) -> Value {
    Value::Object(rows.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect())
}

/// The numbers of a JSON object as rows.
pub fn from_json(object: &Value) -> Rows {
    let fields = object.as_object().unwrap_or(&[]);
    fields.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
}
