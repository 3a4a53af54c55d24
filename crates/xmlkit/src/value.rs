//! Typed atomic values.
//!
//! P2PML WHERE-clause conditions compare attribute values and constants.  The
//! paper's conditions are "equality or inequality conditions on the atomic
//! variables (integer or strings)".  We additionally support floats and
//! booleans because timestamps and durations in the SOAP alerter are naturally
//! fractional.  Comparison follows XPath-like coercion: if both sides parse as
//! numbers they compare numerically, otherwise as strings.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// An atomic value extracted from an attribute, a text node or a constant in
/// a subscription.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed 64-bit integer.
    Integer(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean (`true` / `false` literals).
    Bool(bool),
    /// Any other string.
    Str(String),
}

impl Value {
    /// Parses a literal into the most specific value type.
    ///
    /// `"42"` becomes [`Value::Integer`], `"4.2"` becomes [`Value::Float`],
    /// `"true"`/`"false"` become [`Value::Bool`], everything else stays a
    /// string.
    pub fn from_literal(raw: &str) -> Value {
        let trimmed = raw.trim();
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Integer(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        match trimmed {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(raw.to_string()),
        }
    }

    /// Returns the value as a float if it is numeric.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(_) => None,
            Value::Str(s) => s.trim().parse::<f64>().ok().filter(|f| f.is_finite()),
        }
    }

    /// Returns the value as a boolean using XPath-style truthiness: false,
    /// zero and the empty string are false, everything else true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Integer(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// The canonical string representation (used when constructing RETURN
    /// output trees).
    pub fn as_string(&self) -> String {
        self.canonical_str().into_owned()
    }

    /// The canonical string representation, borrowed when the value already
    /// holds it: what non-numeric comparisons order by.
    pub fn canonical_str(&self) -> Cow<'_, str> {
        match self {
            Value::Integer(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(format_float(*f)),
            Value::Bool(true) => Cow::Borrowed("true"),
            Value::Bool(false) => Cow::Borrowed("false"),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    /// Compares two values with numeric coercion when both sides are numeric.
    ///
    /// Returns `None` only when a float comparison involves NaN (which our
    /// parser never produces).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self.as_number(), other.as_number()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => Some(self.canonical_str().cmp(&other.canonical_str())),
        }
    }

    /// Equality with numeric coercion: `Integer(2) == Float(2.0) == Str("2")`.
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// Arithmetic subtraction, used by LET clauses such as
    /// `$duration := $c1.responseTimestamp - $c1.callTimestamp`.
    pub fn sub(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Integer(a), Value::Integer(b)) => Some(Value::Integer(a - b)),
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                Some(Value::Float(a - b))
            }
        }
    }

    /// Arithmetic addition.
    pub fn add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Integer(a), Value::Integer(b)) => Some(Value::Integer(a + b)),
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                Some(Value::Float(a + b))
            }
        }
    }

    /// Arithmetic multiplication.
    pub fn mul(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Integer(a), Value::Integer(b)) => Some(Value::Integer(a * b)),
            _ => {
                let (a, b) = (self.as_number()?, other.as_number()?);
                Some(Value::Float(a * b))
            }
        }
    }

    /// Arithmetic division (float semantics; division by zero yields `None`).
    pub fn div(&self, other: &Value) -> Option<Value> {
        let (a, b) = (self.as_number()?, other.as_number()?);
        if b == 0.0 {
            None
        } else {
            Some(Value::Float(a / b))
        }
    }
}

fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{:.1}", f)
    } else {
        format!("{}", f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_parsing_prefers_specific_types() {
        assert_eq!(Value::from_literal("42"), Value::Integer(42));
        assert_eq!(Value::from_literal("-7"), Value::Integer(-7));
        assert_eq!(Value::from_literal("3.5"), Value::Float(3.5));
        assert_eq!(Value::from_literal("true"), Value::Bool(true));
        assert_eq!(Value::from_literal("false"), Value::Bool(false));
        assert_eq!(
            Value::from_literal("http://meteo.com"),
            Value::Str("http://meteo.com".to_string())
        );
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert!(Value::Integer(2).loose_eq(&Value::Float(2.0)));
        assert!(Value::Integer(2).loose_eq(&Value::Str("2".into())));
        assert_eq!(
            Value::Integer(10).compare(&Value::Integer(3)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Str("abc".into()).compare(&Value::Str("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn compare_borrows_but_orders_as_the_cloning_definition_did() {
        // `compare` as it was while it cloned both sides to order them.
        fn by_cloning(a: &Value, b: &Value) -> Option<Ordering> {
            match (a.as_number(), b.as_number()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => Some(a.as_string().cmp(&b.as_string())),
            }
        }
        let spellings = [
            "5",
            "5.0",
            " 5 ",
            "-0",
            "-0.0",
            "0",
            "1e1",
            "9007199254740993",
            "9007199254740992",
            "true",
            " true",
            "false",
            "inf",
            "NaN",
            "",
            "abc",
            "ABC",
            " abc ",
            "10",
            "9a",
        ];
        // Each spelling as a literal would type it and as the raw string it
        // is: `Str("5")` is numeric to `compare` though no literal yields it.
        let values: Vec<Value> = spellings
            .iter()
            .flat_map(|s| [Value::from_literal(s), Value::Str(s.to_string())])
            .collect();
        for a in &values {
            for b in &values {
                assert_eq!(a.compare(b), by_cloning(a, b), "{a:?} vs {b:?}");
            }
        }
        assert!(matches!(
            Value::Str("x".into()).canonical_str(),
            Cow::Borrowed("x")
        ));
    }

    #[test]
    fn string_vs_number_falls_back_to_string_order() {
        // "10" as a string compares with a non-numeric string lexicographically.
        let a = Value::Str("10".into());
        let b = Value::Str("9a".into());
        assert_eq!(a.compare(&b), Some(Ordering::Less));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            Value::Integer(10).sub(&Value::Integer(4)),
            Some(Value::Integer(6))
        );
        assert_eq!(
            Value::Float(1.5).add(&Value::Integer(1)),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            Value::Integer(3).mul(&Value::Integer(4)),
            Some(Value::Integer(12))
        );
        assert_eq!(Value::Integer(3).div(&Value::Integer(0)), None);
        assert_eq!(
            Value::Str("x".into()).sub(&Value::Integer(1)),
            None,
            "non-numeric arithmetic must fail, not panic"
        );
    }

    #[test]
    fn truthiness() {
        assert!(Value::Integer(1).truthy());
        assert!(!Value::Integer(0).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::Bool(false).truthy());
    }

    #[test]
    fn display_round_trips_integers() {
        assert_eq!(Value::Integer(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
