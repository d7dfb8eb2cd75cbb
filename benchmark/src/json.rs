//! Small helpers over the workspace's `serde_json::Value` tree: building
//! records and reading fields back.

pub use serde_json::Value;

/// An object from `(key, value)` pairs, in the given order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A float value.
pub fn num(value: f64) -> Value {
    Value::Float(value)
}

/// An integer value.
pub fn int(value: u64) -> Value {
    Value::Int(i128::from(value))
}

/// A string value.
pub fn text(value: impl Into<String>) -> Value {
    Value::String(value.into())
}

/// Field `key` of an object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number (integer or float) as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A non-negative integer.
pub fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// A string.
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// A boolean.
pub fn as_bool(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The entries of an object, or nothing.
pub fn entries(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Object(entries) => entries,
        _ => &[],
    }
}
