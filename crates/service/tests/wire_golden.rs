//! Wire-byte goldens: the exact NDJSON line each request, event and
//! journal record encodes to, pinned as literals.
//!
//! The determinism contract covers these bytes, not just the values
//! they decode to, so every case checks both directions: the value
//! encodes to the pinned line, and the pinned line decodes to a value
//! that re-encodes to the same line. Together the cases cover every
//! optional field both present and absent, a non-default `migration`,
//! u64s above 2^53, ±inf and NaN, a Pareto front, `wstate` news and
//! `wharvested` `per_k` pairs.
//!
//! The same lines then drive the strictness check: a smuggled field in
//! any message, or in any nested object, is rejected by name.

use ff_engine::MigrationPolicyId;
use ff_partition::Objective;
use ff_service::protocol::{MoleculeInfo, WIslandResult, WIslandState, WNews, WorkerStart};
use ff_service::{
    DoneInfo, Event, GraphFormat, GraphSource, Improvement, JobRequest, JobStatus, JournalRecord,
    JournalWriter, ParetoPointInfo, Request, StatsInfo, DURATION_BUCKET_MS, WAIT_BUCKET_MS,
};
use serde_json::{Number, Value};

fn molecule() -> MoleculeInfo {
    MoleculeInfo {
        assignment: vec![0, 2, 1, 2, 0],
        parts: 3,
    }
}

fn full_job() -> JobRequest {
    JobRequest {
        objective: Objective::Cut,
        objectives: Some(vec![Objective::Cut, Objective::NCut, Objective::MCut]),
        migration: MigrationPolicyId::Combine,
        seed: u64::MAX,
        steps: Some(u64::MAX - 1),
        deadline_ms: Some(4_000),
        islands: 3,
        chunk: 64,
        assignment: false,
        multilevel: Some(0),
        ..JobRequest::new("web", 4)
    }
}

fn minimal_job() -> JobRequest {
    JobRequest {
        steps: Some(20_000),
        seed: 7,
        ..JobRequest::new("grid", 2)
    }
}

fn improvement() -> Improvement {
    Improvement {
        job: 3,
        value: 0.964286,
        step: 17,
        elapsed_ms: 3,
        island: 0,
        objective: None,
    }
}

fn pareto_done() -> DoneInfo {
    DoneInfo {
        job: 4,
        status: JobStatus::Completed,
        value: 2.0,
        parts: 4,
        steps: 40_000,
        elapsed_ms: 125,
        migrations: 1,
        assignment: Some(vec![0, 1, 0, 1]),
        pareto: Some(vec![
            ParetoPointInfo {
                island: 0,
                objective: Objective::Cut,
                values: vec![(Objective::Cut, 2.0), (Objective::MCut, f64::INFINITY)],
                parts: 4,
                assignment: Some(vec![0, 1, 0, 1]),
            },
            ParetoPointInfo {
                island: 1,
                objective: Objective::MCut,
                values: vec![(Objective::Cut, 3.0), (Objective::MCut, 0.25)],
                parts: 2,
                assignment: None,
            },
        ]),
    }
}

fn request_cases() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Load {
                instance: "web".into(),
                source: GraphSource::Path("/data/g.graph".into()),
                format: GraphFormat::Metis,
            },
            r#"{"op":"load","instance":"web","path":"/data/g.graph","format":"metis"}"#,
        ),
        (
            Request::Load {
                instance: "inline".into(),
                source: GraphSource::Data("1 2\n2 3\n".into()),
                format: GraphFormat::EdgeList,
            },
            r#"{"op":"load","instance":"inline","data":"1 2\n2 3\n","format":"edgelist"}"#,
        ),
        (
            Request::Submit(full_job()),
            r#"{"op":"submit","instance":"web","k":4.0,"objective":"cut","seed":"18446744073709551615","objectives":["cut","ncut","mcut"],"migration":"combine","steps":"18446744073709551614","deadline_ms":4000.0,"islands":3.0,"chunk":64.0,"assignment":false,"multilevel":0.0}"#,
        ),
        (
            Request::Submit(minimal_job()),
            r#"{"op":"submit","instance":"grid","k":2.0,"objective":"mcut","seed":7.0,"steps":20000.0,"islands":1.0,"chunk":512.0,"assignment":true}"#,
        ),
        (Request::Cancel { job: 9 }, r#"{"op":"cancel","job":9.0}"#),
        (Request::Stats, r#"{"op":"stats"}"#),
        (Request::Shutdown, r#"{"op":"shutdown"}"#),
        (
            Request::WStart(WorkerStart {
                session: 5,
                instance: "web".into(),
                k: 4,
                seeds: vec![7, u64::MAX, (1 << 53) + 1],
                objectives: vec![Objective::MCut, Objective::Cut, Objective::NCut],
                steps: 20_000,
            }),
            r#"{"op":"wstart","session":5.0,"instance":"web","k":4.0,"seeds":[7.0,"18446744073709551615","9007199254740993"],"objectives":["mcut","cut","ncut"],"steps":20000.0}"#,
        ),
        (
            Request::WAdvance {
                session: 5,
                epoch: 3,
                steps: 1024,
            },
            r#"{"op":"wadvance","session":5.0,"epoch":3.0,"steps":1024.0}"#,
        ),
        (
            Request::WMolecule {
                session: 5,
                island: 2,
            },
            r#"{"op":"wmolecule","session":5.0,"island":2.0}"#,
        ),
        (
            Request::WInject {
                session: 5,
                island: 1,
                molecule: molecule(),
                crossover: true,
            },
            r#"{"op":"winject","session":5.0,"island":1.0,"assignment":[0.0,2.0,1.0,2.0,0.0],"parts":3.0,"crossover":true}"#,
        ),
        (
            Request::WHarvest { session: 5 },
            r#"{"op":"wharvest","session":5.0}"#,
        ),
    ]
}

fn event_cases() -> Vec<(Event, &'static str)> {
    vec![
        (
            Event::Hello {
                proto: 1,
                workers: 4,
            },
            r#"{"event":"hello","proto":1.0,"workers":4.0}"#,
        ),
        (
            Event::Loaded {
                instance: "web".into(),
                vertices: 762,
                edges: 3444,
                cached: true,
                reloaded: false,
            },
            r#"{"event":"loaded","instance":"web","vertices":762.0,"edges":3444.0,"cached":true,"reloaded":false}"#,
        ),
        (
            Event::Accepted {
                job: 3,
                instance: "web".into(),
                k: 26,
            },
            r#"{"event":"accepted","job":3.0,"instance":"web","k":26.0}"#,
        ),
        (
            Event::Rejected {
                instance: "web".into(),
                reason: "server at capacity (max 8 in-flight jobs)".into(),
                retry_after_ms: 250,
                in_flight: 8,
            },
            r#"{"event":"rejected","instance":"web","reason":"server at capacity (max 8 in-flight jobs)","retry_after_ms":250.0,"in_flight":8.0}"#,
        ),
        (
            Event::Improvement(improvement()),
            r#"{"event":"improvement","job":3.0,"value":0.964286,"step":17.0,"elapsed_ms":3.0,"island":0.0}"#,
        ),
        (
            Event::Improvement(Improvement {
                job: 3,
                value: f64::INFINITY,
                step: 1,
                elapsed_ms: 0,
                island: 2,
                objective: Some(Objective::NCut),
            }),
            r#"{"event":"improvement","job":3.0,"value":"inf","step":1.0,"elapsed_ms":0.0,"island":2.0,"objective":"ncut"}"#,
        ),
        (
            Event::Done(pareto_done()),
            r#"{"event":"done","job":4.0,"status":"completed","value":2.0,"parts":4.0,"steps":40000.0,"elapsed_ms":125.0,"migrations":1.0,"assignment":[0.0,1.0,0.0,1.0],"pareto":[{"island":0.0,"objective":"cut","values":{"cut":2.0,"mcut":"inf"},"parts":4.0,"assignment":[0.0,1.0,0.0,1.0]},{"island":1.0,"objective":"mcut","values":{"cut":3.0,"mcut":0.25},"parts":2.0}]}"#,
        ),
        (
            Event::Done(DoneInfo {
                job: 5,
                status: JobStatus::Deadline,
                value: f64::NEG_INFINITY,
                parts: 2,
                steps: (1 << 53) + 2,
                elapsed_ms: 250,
                migrations: 0,
                assignment: None,
                pareto: None,
            }),
            r#"{"event":"done","job":5.0,"status":"deadline","value":"-inf","parts":2.0,"steps":"9007199254740994","elapsed_ms":250.0,"migrations":0.0}"#,
        ),
        (
            Event::Cancelling {
                job: 3,
                known: true,
            },
            r#"{"event":"cancelling","job":3.0,"known":true}"#,
        ),
        (
            Event::Stats(StatsInfo {
                instances: 1,
                cache_hits: 9,
                cache_loads: 1,
                cache_evictions: 3,
                cache_bytes: 65_536,
                cache_budget_bytes: 1 << 20,
                jobs_submitted: 10,
                jobs_running: 2,
                jobs_done: 8,
                jobs_cancelled: 1,
                jobs_rejected: 4,
                max_jobs: 16,
                workers: 2,
                gate_queued: 5,
                permit_wait_hist: [7, 5, 3, 1, 0],
                permit_wait_bucket_ms: WAIT_BUCKET_MS,
                job_duration_hist: [2, 3, 1, 1, 1, 0],
                job_duration_bucket_ms: DURATION_BUCKET_MS,
            }),
            r#"{"event":"stats","instances":1.0,"cache_hits":9.0,"cache_loads":1.0,"cache_evictions":3.0,"cache_bytes":65536.0,"cache_budget_bytes":1048576.0,"jobs_submitted":10.0,"jobs_running":2.0,"jobs_done":8.0,"jobs_cancelled":1.0,"jobs_rejected":4.0,"max_jobs":16.0,"workers":2.0,"gate_queued":5.0,"permit_wait_hist":[7.0,5.0,3.0,1.0,0.0],"permit_wait_bucket_ms":[1.0,10.0,100.0,1000.0],"job_duration_hist":[2.0,3.0,1.0,1.0,1.0,0.0],"job_duration_bucket_ms":[10.0,100.0,1000.0,10000.0,60000.0]}"#,
        ),
        (
            Event::Error {
                message: "unknown instance `x`".into(),
                job: Some(4),
            },
            r#"{"event":"error","message":"unknown instance `x`","job":4.0}"#,
        ),
        (
            Event::Error {
                message: "bad JSON".into(),
                job: None,
            },
            r#"{"event":"error","message":"bad JSON"}"#,
        ),
        (Event::Bye, r#"{"event":"bye"}"#),
        (
            Event::WReady {
                session: 5,
                islands: 2,
            },
            r#"{"event":"wready","session":5.0,"islands":2.0}"#,
        ),
        (
            Event::WState {
                session: 5,
                epoch: 1,
                islands: vec![
                    WIslandState {
                        island: 0,
                        more: true,
                        energy: f64::INFINITY,
                        steps: 1024,
                        news: vec![],
                    },
                    WIslandState {
                        island: 1,
                        more: false,
                        energy: 0.953125,
                        steps: 20_000,
                        news: vec![
                            WNews {
                                step: 512,
                                value: f64::NAN,
                                elapsed_ms: 3,
                            },
                            WNews {
                                step: 900,
                                value: 4.25,
                                elapsed_ms: 15,
                            },
                        ],
                    },
                ],
            },
            r#"{"event":"wstate","session":5.0,"epoch":1.0,"islands":[{"island":0.0,"more":true,"energy":"inf","steps":1024.0,"news":[]},{"island":1.0,"more":false,"energy":0.953125,"steps":20000.0,"news":[{"step":512.0,"value":"nan","elapsed_ms":3.0},{"step":900.0,"value":4.25,"elapsed_ms":15.0}]}]}"#,
        ),
        (
            Event::WMolecule {
                session: 5,
                island: 1,
                molecule: molecule(),
                energy: 0.953125,
            },
            r#"{"event":"wmolecule","session":5.0,"island":1.0,"assignment":[0.0,2.0,1.0,2.0,0.0],"parts":3.0,"energy":0.953125}"#,
        ),
        (
            Event::WInjected {
                session: 5,
                island: 0,
                adopted: false,
            },
            r#"{"event":"winjected","session":5.0,"island":0.0,"adopted":false}"#,
        ),
        (
            Event::WHarvested {
                session: 5,
                islands: vec![WIslandResult {
                    island: 0,
                    value: 4.25,
                    energy: 0.953125,
                    steps: 20_000,
                    molecule: molecule(),
                    per_k: vec![(2, 4.25), (3, f64::INFINITY), (u64::MAX, f64::NEG_INFINITY)],
                }],
            },
            r#"{"event":"wharvested","session":5.0,"islands":[{"island":0.0,"value":4.25,"energy":0.953125,"steps":20000.0,"assignment":[0.0,2.0,1.0,2.0,0.0],"parts":3.0,"per_k":[[2.0,4.25],[3.0,"inf"],["18446744073709551615","-inf"]]}]}"#,
        ),
    ]
}

fn journal_cases() -> Vec<(JournalRecord, &'static str)> {
    vec![
        (
            JournalRecord::Instance {
                instance: "grid".into(),
                source: GraphSource::Data("3 2\n2\n1 3\n2\n".into()),
                format: GraphFormat::Metis,
                digest: 0xdead_beef_dead_beef,
            },
            r#"{"record":"instance","instance":"grid","data":"3 2\n2\n1 3\n2\n","format":"metis","digest":"16045690984833335023"}"#,
        ),
        (
            JournalRecord::Instance {
                instance: "web".into(),
                source: GraphSource::Path("/data/web.edges".into()),
                format: GraphFormat::EdgeList,
                digest: 42,
            },
            r#"{"record":"instance","instance":"web","path":"/data/web.edges","format":"edgelist","digest":42.0}"#,
        ),
        (
            JournalRecord::Submitted {
                job: 1,
                spec: full_job(),
            },
            r#"{"record":"submitted","job":1.0,"spec":{"op":"submit","instance":"web","k":4.0,"objective":"cut","seed":"18446744073709551615","objectives":["cut","ncut","mcut"],"migration":"combine","steps":"18446744073709551614","deadline_ms":4000.0,"islands":3.0,"chunk":64.0,"assignment":false,"multilevel":0.0}}"#,
        ),
        (
            JournalRecord::Event(Event::Done(pareto_done())),
            r#"{"record":"event","event":{"event":"done","job":4.0,"status":"completed","value":2.0,"parts":4.0,"steps":40000.0,"elapsed_ms":125.0,"migrations":1.0,"assignment":[0.0,1.0,0.0,1.0],"pareto":[{"island":0.0,"objective":"cut","values":{"cut":2.0,"mcut":"inf"},"parts":4.0,"assignment":[0.0,1.0,0.0,1.0]},{"island":1.0,"objective":"mcut","values":{"cut":3.0,"mcut":0.25},"parts":2.0}]}}"#,
        ),
    ]
}

#[test]
fn requests_encode_to_pinned_bytes() {
    for (req, golden) in request_cases() {
        assert_eq!(req.to_value().to_string(), golden);
        let decoded = Request::parse(golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
        assert_eq!(decoded.to_value().to_string(), golden);
    }
}

#[test]
fn events_encode_to_pinned_bytes() {
    for (ev, golden) in event_cases() {
        assert_eq!(ev.to_value().to_string(), golden);
        let decoded = Event::parse(golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
        assert_eq!(decoded.to_value().to_string(), golden);
    }
}

#[test]
fn job_request_encodes_like_its_submit_line() {
    for job in [full_job(), minimal_job()] {
        let line = job.to_value().to_string();
        assert_eq!(line, Request::Submit(job.clone()).to_value().to_string());
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(JobRequest::from_value(&value).unwrap(), job);
    }
}

#[test]
fn journal_records_encode_to_pinned_bytes() {
    for (record, golden) in journal_cases() {
        assert_eq!(record.to_value().to_string(), golden);
        let value = serde_json::from_str(golden).unwrap();
        let decoded = JournalRecord::from_value(&value).unwrap_or_else(|e| panic!("{golden}: {e}"));
        assert_eq!(decoded.to_value().to_string(), golden);
    }
}

#[test]
fn journal_frame_is_pinned() {
    let path = std::env::temp_dir().join(format!("ff-wire-golden-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let writer = JournalWriter::open(&path).unwrap();
    writer
        .append(&JournalRecord::Event(Event::Improvement(improvement())))
        .unwrap();
    drop(writer);
    let bytes = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        bytes,
        "119 4293c98fca826465 {\"record\":\"event\",\"event\":{\"event\":\"improvement\",\"job\":3.0,\"value\":0.964286,\"step\":17.0,\"elapsed_ms\":3.0,\"island\":0.0}}\n"
    );
}

/// `v` with `"smuggled":7` added to the object at `path`, a list of
/// object keys and array indices.
fn smuggle(v: &Value, path: &[&str]) -> Value {
    match (v, path.split_first()) {
        (Value::Object(m), None) => {
            let mut m = m.clone();
            let seven = Value::Number(Number::from_f64(7.0).unwrap());
            m.insert("smuggled".into(), seven);
            Value::Object(m)
        }
        (Value::Object(m), Some((key, rest))) => {
            let mut m = m.clone();
            let inner = smuggle(m.get(key).unwrap(), rest);
            m.insert(key.to_string(), inner);
            Value::Object(m)
        }
        (Value::Array(items), Some((index, rest))) => {
            let mut items = items.clone();
            let at: usize = index.parse().unwrap();
            items[at] = smuggle(&items[at], rest);
            Value::Array(items)
        }
        _ => panic!("no object at {path:?} in {v}"),
    }
}

fn assert_names_smuggled(line: &str, result: Result<(), String>) {
    let err = result.expect_err(line);
    assert!(
        err.contains("unknown field `smuggled`"),
        "{line}: error `{err}` should name the field"
    );
}

/// The first pinned line that starts with `prefix`, parsed.
fn pinned(lines: &[&str], prefix: &str) -> Value {
    let line = lines.iter().find(|l| l.starts_with(prefix)).unwrap();
    serde_json::from_str(line).unwrap()
}

#[test]
fn every_message_rejects_a_smuggled_field_by_name() {
    let request_lines: Vec<&str> = request_cases().into_iter().map(|(_, l)| l).collect();
    let event_lines: Vec<&str> = event_cases().into_iter().map(|(_, l)| l).collect();
    let journal_lines: Vec<&str> = journal_cases().into_iter().map(|(_, l)| l).collect();
    let request = |v: &Value| Request::parse(&v.to_string()).map(drop);
    let event = |v: &Value| Event::parse(&v.to_string()).map(drop);
    let journal = |v: &Value| JournalRecord::from_value(v).map(drop);
    for line in &request_lines {
        let v = smuggle(&serde_json::from_str(line).unwrap(), &[]);
        assert_names_smuggled(line, request(&v));
    }
    for line in &event_lines {
        let v = smuggle(&serde_json::from_str(line).unwrap(), &[]);
        assert_names_smuggled(line, event(&v));
    }
    for line in &journal_lines {
        let v = smuggle(&serde_json::from_str(line).unwrap(), &[]);
        assert_names_smuggled(line, journal(&v));
    }

    // Nested objects: Pareto points, wstate islands and their news,
    // wharvested islands, and the journal's nested spec and event.
    let nested_events: [(&str, &[&str]); 5] = [
        (r#"{"event":"done""#, &["pareto", "0"]),
        (r#"{"event":"done""#, &["pareto", "1"]),
        (r#"{"event":"wstate""#, &["islands", "1"]),
        (r#"{"event":"wstate""#, &["islands", "1", "news", "0"]),
        (r#"{"event":"wharvested""#, &["islands", "0"]),
    ];
    for (prefix, path) in nested_events {
        let v = smuggle(&pinned(&event_lines, prefix), path);
        assert_names_smuggled(&v.to_string(), event(&v));
    }
    let nested_records: [(&str, &[&str]); 3] = [
        (r#"{"record":"submitted""#, &["spec"]),
        (r#"{"record":"event""#, &["event"]),
        (r#"{"record":"event""#, &["event", "pareto", "0"]),
    ];
    for (prefix, path) in nested_records {
        let v = smuggle(&pinned(&journal_lines, prefix), path);
        assert_names_smuggled(&v.to_string(), journal(&v));
    }

    // The HTTP `POST /jobs` body: a submit without `op`.
    let body = r#"{"instance":"g","k":2,"steps":10,"smuggled":7}"#;
    let v: Value = serde_json::from_str(body).unwrap();
    assert_names_smuggled(body, JobRequest::from_value(&v).map(drop));
}

#[test]
fn unknown_fields_are_reported_before_missing_ones() {
    // `stesp` is a typo for `steps`, so the budget is also missing; the
    // typo is the error worth reporting.
    let line = r#"{"op":"submit","instance":"g","k":2,"stesp":10}"#;
    let err = Request::parse(line).unwrap_err();
    assert!(err.contains("unknown field `stesp`"), "{err}");
    let line = r#"{"event":"wready","sesion":1}"#;
    let err = Event::parse(line).unwrap_err();
    assert!(err.contains("unknown field `sesion`"), "{err}");
}
