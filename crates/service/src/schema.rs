//! The wire schema behind [`crate::protocol`] and [`crate::journal`]:
//! [`Wire`] gives each value type its one encoding, and [`wire_struct!`]
//! / [`wire_enum!`] turn a field list into encoder, decoder and key set.

use crate::cache::{GraphFormat, GraphSource};
use crate::protocol::JobStatus;
use ff_engine::MigrationPolicyId;
use ff_partition::Objective;
use serde_json::{Map, Number, Value};

/// A JSON number, or `"inf"` / `"-inf"` / `"nan"` where JSON has none.
pub(crate) fn num(v: f64) -> Value {
    match Number::from_f64(v) {
        Some(n) => Value::Number(n),
        None if v.is_nan() => s("nan"),
        None if v > 0.0 => s("inf"),
        None => s("-inf"),
    }
}

/// JSON numbers are f64s, which round above 2^53 and would silently
/// alter a seed or budget, so larger integers travel as decimal strings.
fn unum(v: u64) -> Value {
    if v <= (1u64 << 53) {
        num(v as f64)
    } else {
        s(v.to_string())
    }
}

pub(crate) fn s(v: impl Into<String>) -> Value {
    Value::String(v.into())
}

/// A value type's one wire encoding.
pub(crate) trait Wire: Sized + PartialEq {
    fn encode(&self) -> Value;
    /// Decodes a present value; the error says what was expected.
    fn decode(v: &Value) -> Result<Self, String>;
    /// What an absent field decodes to, if it may be absent. A value
    /// equal to it is left off the wire.
    fn absent() -> Option<Self> {
        None
    }
}

/// A message body, a nested object, or fields flattened into a parent.
pub(crate) trait Fields: Sized {
    fn known(key: &str) -> bool;
    fn put(&self, m: &mut Map);
    /// Decodes the fields from `m`, which holds no unknown keys.
    fn take(m: &Map) -> Result<Self, String>;
}

pub(crate) fn put<T: Wire>(m: &mut Map, key: &str, value: &T) {
    if T::absent().as_ref() != Some(value) {
        m.insert(key.to_string(), value.encode());
    }
}

pub(crate) fn take<T: Wire>(m: &Map, key: &str, default: Option<T>) -> Result<T, String> {
    match m.get(key) {
        Some(v) => T::decode(v).map_err(|e| format!("bad `{key}`: {e}")),
        None => default
            .or_else(T::absent)
            .ok_or_else(|| format!("missing `{key}`")),
    }
}

pub(crate) fn check_known(m: &Map, known: impl Fn(&str) -> bool) -> Result<(), String> {
    let unknown = m.iter().find(|(key, _)| !known(key));
    unknown.map_or(Ok(()), |(key, _)| Err(format!("unknown field `{key}`")))
}

/// Parses one NDJSON line as `T`.
pub(crate) fn parse_line<T: Wire>(line: &str) -> Result<T, String> {
    T::decode(&serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?)
}

/// Runs `f`, leading any error with the message's `tag`.
pub(crate) fn prefixed<T>(tag: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    f().map_err(|e| format!("{tag}: {e}"))
}

/// Value encodings: `$encode` maps `&self` as `$x` to JSON, `$decode` maps
/// `$v` back or to `None`, and `absent` is an absent field's value.
macro_rules! wire_values {
    ($($T:ty, $expected:literal: |$x:ident| $encode:expr,
        |$v:ident| $decode:expr $(, absent $absent:expr)?;)+) => {$(
        impl Wire for $T {
            fn encode(&self) -> Value {
                let $x = self;
                $encode
            }
            fn decode($v: &Value) -> Result<Self, String> {
                $decode.ok_or_else(|| $expected.to_string())
            }
            $(fn absent() -> Option<Self> {
                Some($absent)
            })?
        }
    )+};
}

wire_values! {
    u64, "expected an unsigned integer": |x| unum(*x), |v| match v {
        Value::String(text) => text.parse().ok(),
        v => v.as_u64(),
    };
    usize, "expected an unsigned integer": |x| unum(*x as u64), |v| u64::decode(v).ok().map(|x| x as usize);
    // Part ids: plain numbers only.
    u32, "bad part id": |x| unum(*x as u64), |v| v.as_u64().and_then(|p| u32::try_from(p).ok());
    f64, "expected a number, \"inf\", \"-inf\" or \"nan\"": |x| num(*x), |v| match v.as_str() {
        Some("inf") => Some(f64::INFINITY),
        Some("-inf") => Some(f64::NEG_INFINITY),
        Some("nan") => Some(f64::NAN),
        _ => v.as_f64(),
    };
    bool, "expected true or false": |x| Value::Bool(*x), |v| v.as_bool();
    String, "expected a string": |x| s(x.as_str()), |v| v.as_str().map(str::to_string);
    GraphFormat, "expected `metis` or `edgelist`": |x| s(x.name()), |v| v.as_str().and_then(GraphFormat::parse);
    MigrationPolicyId, "expected `replace`, `combine` or `adaptive`": |x| s(x.name()),
        |v| v.as_str().and_then(MigrationPolicyId::parse), absent MigrationPolicyId::default();
    // A Pareto point's `values`: an object keyed by objective name.
    Vec<(Objective, f64)>, "expected an object of objective values": |x| {
        let mut m = Map::new();
        for (o, value) in x {
            if let Value::String(name) = o.encode() {
                m.insert(name, value.encode());
            }
        }
        Value::Object(m)
    }, |v| v.as_object().and_then(|m| {
        let entry = |(name, x): (&String, &Value)| Objective::decode(&s(name.as_str())).ok().zip(f64::decode(x).ok());
        m.iter().map(entry).collect()
    });
    // A `per_k` entry: `[k, best value at k]`.
    (u64, f64), "expected a `[k, value]` pair": |x| Value::Array(vec![x.0.encode(), x.1.encode()]),
        |v| match v.as_array().map(Vec::as_slice) {
            Some([k, x]) => u64::decode(k).ok().zip(f64::decode(x).ok()),
            _ => None,
        };
}

/// Enums that travel as a name, each name written once.
macro_rules! wire_names {
    ($($T:ident $what:literal { $($V:ident = $name:literal),+ })+) => {$(
        impl Wire for $T {
            fn encode(&self) -> Value {
                s(match self { $($T::$V => $name),+ })
            }
            fn decode(v: &Value) -> Result<Self, String> {
                match v.as_str() {
                    $(Some($name) => Ok($T::$V),)+
                    Some(name) => Err(format!(
                        "unknown {} `{name}` ({})", $what, [$($name),+].join("|")
                    )),
                    None => Err("expected a name".into()),
                }
            }
        }
    )+};
}

wire_names! {
    Objective "objective" { Cut = "cut", NCut = "ncut", MCut = "mcut" }
    JobStatus "status" { Completed = "completed", Cancelled = "cancelled", Deadline = "deadline" }
}

/// Absent is `None`; a present `null` is malformed.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }
    fn decode(v: &Value) -> Result<Self, String> {
        T::decode(v).map(Some)
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array")?;
        let entry = |(i, x)| T::decode(x).map_err(|e| format!("entry {i}: {e}"));
        items.iter().enumerate().map(entry).collect()
    }
}

/// The `stats` histograms and bucket bounds: exactly `N` entries.
impl<const N: usize> Wire for [u64; N] {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(u64::encode).collect())
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array")?;
        let values: Option<Vec<u64>> = items.iter().map(|x| u64::decode(x).ok()).collect();
        let values = values.ok_or("entries must be unsigned integers")?;
        let len = values.len();
        values
            .try_into()
            .map_err(|_| format!("must have {N} entries, got {len}"))
    }
}

/// `path` xor `data`, flattened into `load` requests and `instance`
/// records.
impl Fields for GraphSource {
    fn known(key: &str) -> bool {
        key == "path" || key == "data"
    }
    fn put(&self, m: &mut Map) {
        match self {
            GraphSource::Path(path) => put(m, "path", path),
            GraphSource::Data(data) => put(m, "data", data),
        }
    }
    fn take(m: &Map) -> Result<Self, String> {
        match (take(m, "path", None)?, take(m, "data", None)?) {
            (Some(path), None) => Ok(GraphSource::Path(path)),
            (None, Some(data)) => Ok(GraphSource::Data(data)),
            (None, None) => Err("need `path` or `data`".into()),
            (Some(_), Some(_)) => Err("`path` and `data` are mutually exclusive".into()),
        }
    }
}

/// One field declaration, `key: Type`, in each of its roles: known-key
/// test, encoder and decoder. `key: Type = default` is what an absent
/// field decodes to; `@flatten key: Type` puts a [`Fields`] type's own
/// keys in the parent object.
macro_rules! field {
    (known $k:ident, @flatten $key:ident: $ty:ty) => {
        <$ty as $crate::schema::Fields>::known($k)
    };
    (known $k:ident, $key:ident: $ty:ty $(= $default:expr)?) => {
        $k == stringify!($key)
    };
    (put $m:ident, $v:expr, @flatten $key:ident: $ty:ty) => {
        $crate::schema::Fields::put($v, $m)
    };
    (put $m:ident, $v:expr, $key:ident: $ty:ty $(= $default:expr)?) => {
        $crate::schema::put($m, stringify!($key), $v)
    };
    (take $m:ident, @flatten $key:ident: $ty:ty) => {
        <$ty as $crate::schema::Fields>::take($m)?
    };
    (take $m:ident, $key:ident: $ty:ty $(= $default:expr)?) => {
        $crate::schema::take::<$ty>($m, stringify!($key), None $(.or(Some($default)))?)?
    };
}

/// Defines a message struct from its fields in wire order, and
/// implements [`Fields`] and [`Wire`] for it. `in "op" = "submit"`
/// leads the encoded object with that tag, which the decoder then
/// accepts with any value; `check f` runs `f(&value)` on each decoded
/// value, for the rules that span fields.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $T:ident $(in $tag_key:literal = $tag:literal)? {
            $($(#[doc = $doc:literal])* $(@$flat:ident)? pub $key:ident: $ty:ty $(= $default:expr)?,)+
        }
        $(check $check:path)?
    ) => {
        $(#[$meta])*
        pub struct $T {
            $($(#[doc = $doc])* pub $key: $ty,)+
        }

        impl $crate::schema::Fields for $T {
            fn known(k: &str) -> bool {
                $($crate::schema::field!(known k, $(@$flat)? $key: $ty $(= $default)?))||+
            }
            fn put(&self, m: &mut serde_json::Map) {
                $($crate::schema::field!(put m, &self.$key, $(@$flat)? $key: $ty $(= $default)?);)+
            }
            fn take(m: &serde_json::Map) -> Result<Self, String> {
                let out = $T {
                    $($key: $crate::schema::field!(take m, $(@$flat)? $key: $ty $(= $default)?),)+
                };
                $($check(&out)?;)?
                Ok(out)
            }
        }

        impl $crate::schema::Wire for $T {
            fn encode(&self) -> serde_json::Value {
                let mut m = serde_json::Map::new();
                $(m.insert($tag_key.to_string(), $crate::schema::s($tag));)?
                $crate::schema::Fields::put(self, &mut m);
                serde_json::Value::Object(m)
            }
            fn decode(v: &serde_json::Value) -> Result<Self, String> {
                let m = v.as_object().ok_or("expected an object")?;
                $crate::schema::check_known(m, |k| $(k == $tag_key ||)? <Self as $crate::schema::Fields>::known(k))?;
                <Self as $crate::schema::Fields>::take(m)
            }
        }
    };
}

/// Defines an enum whose variants travel as objects tagged by the
/// variant name in `$tag_key`, and generates `to_value` and a [`Wire`]
/// impl. A variant is a unit, a braced field list, or one tuple field
/// named for the wire. Decoding errors lead with the variant's tag;
/// `check f` runs `f(&value)` on each decoded variant.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $E:ident by $tag_key:literal, unknown $what:literal {
            $(
                $(#[doc = $doc:literal])*
                $tag:literal => $V:ident
                $({ $($(#[doc = $fdoc:literal])* $(@$flat:ident)? $key:ident: $ty:ty $(= $default:expr)?,)* })?
                $(($(@$tflat:ident)? $tkey:ident: $tty:ty))?
                $(check $check:path)?,
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum $E {
            $(
                $(#[doc = $doc])*
                $V $({ $($(#[doc = $fdoc])* $key: $ty,)* })? $(($tty))?,
            )+
        }

        impl $E {
            /// Serializes to the JSON object it travels as.
            pub fn to_value(&self) -> serde_json::Value {
                let m = &mut serde_json::Map::new();
                match self {
                    $($E::$V $({ $($key),* })? $(($tkey))? => {
                        m.insert($tag_key.to_string(), $crate::schema::s($tag));
                        $($($crate::schema::field!(put m, $key, $(@$flat)? $key: $ty $(= $default)?);)*)?
                        $($crate::schema::field!(put m, $tkey, $(@$tflat)? $tkey: $tty);)?
                    })+
                }
                serde_json::Value::Object(std::mem::take(m))
            }
        }

        impl $crate::schema::Wire for $E {
            fn encode(&self) -> serde_json::Value {
                self.to_value()
            }
            fn decode(v: &serde_json::Value) -> Result<Self, String> {
                let tag = v.get($tag_key).and_then(serde_json::Value::as_str);
                let (Some(m), Some(tag)) = (v.as_object(), tag) else {
                    return Err(format!("missing `{}`", $tag_key));
                };
                match tag {
                    $($tag => $crate::schema::prefixed(tag, || {
                        $crate::schema::check_known(m, |k| {
                            k == $tag_key
                                $($(|| $crate::schema::field!(known k, $(@$flat)? $key: $ty $(= $default)?))*)?
                                $(|| $crate::schema::field!(known k, $(@$tflat)? $tkey: $tty))?
                        })?;
                        let out = $E::$V
                            $({ $($key: $crate::schema::field!(take m, $(@$flat)? $key: $ty $(= $default)?),)* })?
                            $(($crate::schema::field!(take m, $(@$tflat)? $tkey: $tty)))?;
                        $($check(&out)?;)?
                        Ok(out)
                    }),)+
                    other => Err(format!("unknown {} `{other}`", $what)),
                }
            }
        }
    };
}

pub(crate) use {field, wire_enum, wire_struct};
