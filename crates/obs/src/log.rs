//! Structured operational logging: timestamped, job-tagged span events
//! in NDJSON (one JSON object per line, machine-parseable) or logfmt-ish
//! text, written line-atomically to stderr or any sink.
//!
//! The logger is observation-only by construction: it owns its own
//! writer, never touches the protocol streams, and a disabled logger
//! ([`Logger::off`]) compiles every call down to an `is_none` check.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Output shape of the operational log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// One JSON object per line (NDJSON).
    Json,
    /// `key=value` pairs, strings quoted.
    Text,
}

impl LogFormat {
    /// Parses the CLI spelling (`json` | `text`).
    pub fn parse(name: &str) -> Option<LogFormat> {
        match name {
            "json" => Some(LogFormat::Json),
            "text" => Some(LogFormat::Text),
            _ => None,
        }
    }
}

/// One typed field value on a log event.
#[derive(Clone, Copy, Debug)]
pub enum LogValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String (quoted/escaped on output).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct LogTarget {
    format: LogFormat,
    out: Mutex<Box<dyn Write + Send>>,
}

/// A clonable, line-atomic structured logger. See the module docs.
#[derive(Clone)]
pub struct Logger(Option<Arc<LogTarget>>);

impl Logger {
    /// A disabled logger: every [`Logger::log`] call is a no-op.
    pub fn off() -> Logger {
        Logger(None)
    }

    /// Logs to stderr in `format` — the `ffpart serve --log-format`
    /// shape.
    pub fn stderr(format: LogFormat) -> Logger {
        Logger::to(format, Box::new(std::io::stderr()))
    }

    /// Logs to an arbitrary sink (tests use an in-memory buffer).
    pub fn to(format: LogFormat, out: Box<dyn Write + Send>) -> Logger {
        Logger(Some(Arc::new(LogTarget {
            format,
            out: Mutex::new(out),
        })))
    }

    /// Emits one span event: a Unix-epoch-millisecond timestamp, the
    /// event name, the owning job id (if any), and typed fields, as one
    /// line written under a lock (concurrent events interleave between
    /// lines, never within one). Write errors are swallowed — logging
    /// must never take down the server.
    pub fn log(&self, event: &str, job: Option<u64>, fields: &[(&str, LogValue<'_>)]) {
        let Some(target) = &self.0 else { return };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = String::new();
        match target.format {
            LogFormat::Json => {
                line.push_str(&format!(
                    "{{\"ts_ms\":{ts_ms},\"event\":\"{}\"",
                    json_escape(event)
                ));
                if let Some(job) = job {
                    line.push_str(&format!(",\"job\":{job}"));
                }
                for (key, value) in fields {
                    line.push_str(&format!(",\"{}\":", json_escape(key)));
                    match value {
                        LogValue::U64(v) => line.push_str(&v.to_string()),
                        LogValue::F64(v) if v.is_finite() => line.push_str(&v.to_string()),
                        LogValue::F64(v) => line.push_str(&format!("\"{v}\"")),
                        LogValue::Str(v) => line.push_str(&format!("\"{}\"", json_escape(v))),
                        LogValue::Bool(v) => line.push_str(&v.to_string()),
                    }
                }
                line.push('}');
            }
            LogFormat::Text => {
                line.push_str(&format!("ts_ms={ts_ms} event={event}"));
                if let Some(job) = job {
                    line.push_str(&format!(" job={job}"));
                }
                for (key, value) in fields {
                    match value {
                        LogValue::U64(v) => line.push_str(&format!(" {key}={v}")),
                        LogValue::F64(v) => line.push_str(&format!(" {key}={v}")),
                        LogValue::Str(v) => line.push_str(&format!(" {key}={v:?}")),
                        LogValue::Bool(v) => line.push_str(&format!(" {key}={v}")),
                    }
                }
            }
        }
        let mut out = target.out.lock().unwrap();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Logger(off)"),
            Some(t) => write!(f, "Logger({:?})", t.format),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(format: LogFormat) -> (Logger, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (Logger::to(format, Box::new(Shared(buf.clone()))), buf)
    }

    #[test]
    fn json_lines_are_well_formed_and_tagged() {
        let (logger, buf) = capture(LogFormat::Json);
        logger.log(
            "submit",
            Some(7),
            &[
                ("instance", LogValue::Str("grid \"x\"\n")),
                ("k", LogValue::U64(2)),
                ("cached", LogValue::Bool(true)),
                ("value", LogValue::F64(0.5)),
                ("inf", LogValue::F64(f64::INFINITY)),
            ],
        );
        let bytes = buf.lock().unwrap().clone();
        let line = String::from_utf8(bytes).unwrap();
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("\"event\":\"submit\""), "{line}");
        assert!(line.contains("\"job\":7"), "{line}");
        assert!(
            line.contains("\"instance\":\"grid \\\"x\\\"\\n\""),
            "{line}"
        );
        assert!(line.contains("\"k\":2"), "{line}");
        assert!(line.contains("\"inf\":\"inf\""), "{line}");
        assert!(line.trim_end().ends_with('}'), "{line}");
        assert!(line.contains("\"ts_ms\":"), "{line}");
    }

    #[test]
    fn text_lines_carry_every_field() {
        let (logger, buf) = capture(LogFormat::Text);
        logger.log("done", Some(3), &[("status", LogValue::Str("completed"))]);
        let bytes = buf.lock().unwrap().clone();
        let line = String::from_utf8(bytes).unwrap();
        assert!(
            line.contains("event=done job=3 status=\"completed\""),
            "{line}"
        );
    }

    #[test]
    fn disabled_logger_writes_nothing() {
        let logger = Logger::off();
        logger.log("noop", None, &[]);
    }
}
