//! Prometheus exposition correctness: escaping, histogram bucket
//! cumulativity (ending at `le="+Inf"`), counter monotonicity across
//! scrapes, and a property test that every rendered page parses back.

use ff_obs::{parse_exposition, Registry, Sample};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn samples_named<'a>(samples: &'a [Sample], name: &str) -> Vec<&'a Sample> {
    samples.iter().filter(|s| s.name == name).collect()
}

#[test]
fn metric_names_and_help_render_validly() {
    let reg = Registry::new();
    reg.counter("ff_jobs_completed_total", "Jobs that finished")
        .inc();
    reg.gauge("ff_open_connections", "Open client connections")
        .set(3.0);
    let page = reg.render();
    assert!(page.contains("# HELP ff_jobs_completed_total Jobs that finished\n"));
    assert!(page.contains("# TYPE ff_jobs_completed_total counter\n"));
    assert!(page.contains("# TYPE ff_open_connections gauge\n"));
    parse_exposition(&page).expect("render must be valid exposition text");
}

#[test]
fn label_values_with_every_special_char_round_trip() {
    let reg = Registry::new();
    let hostile = "back\\slash \"quotes\"\nnewline,comma}brace le=\"1\"";
    reg.counter_with(
        "ff_wire_failures_total",
        "Wire failures",
        &[("kind", hostile)],
    )
    .add(2);
    let page = reg.render();
    let samples = parse_exposition(&page).expect("hostile labels must still parse");
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].label("kind"), Some(hostile));
    assert_eq!(samples[0].value, 2.0);
}

#[test]
fn help_text_escapes_backslash_and_newline() {
    let reg = Registry::new();
    reg.counter("ff_esc_total", "line one\nline two \\ backslash")
        .inc();
    let page = reg.render();
    assert!(
        page.contains("# HELP ff_esc_total line one\\nline two \\\\ backslash\n"),
        "{page}"
    );
    parse_exposition(&page).unwrap();
}

#[test]
fn histogram_buckets_are_cumulative_and_end_at_inf() {
    let reg = Registry::new();
    let h = reg.histogram("ff_job_duration_ms", "Job durations", &[1.0, 10.0, 100.0]);
    // One observation per bucket region, including the +Inf overflow,
    // plus a boundary hit: `le` is inclusive, so 10.0 lands in le="10".
    for v in [0.5, 10.0, 42.0, 1e6] {
        h.observe(v);
    }
    let samples = parse_exposition(&reg.render()).unwrap();
    let buckets = samples_named(&samples, "ff_job_duration_ms_bucket");
    assert_eq!(
        buckets
            .iter()
            .map(|s| (s.label("le").unwrap().to_string(), s.value))
            .collect::<Vec<_>>(),
        vec![
            ("1".to_string(), 1.0),
            ("10".to_string(), 2.0),
            ("100".to_string(), 3.0),
            ("+Inf".to_string(), 4.0),
        ]
    );
    // Cumulativity: each bucket >= the previous; +Inf equals _count.
    for pair in buckets.windows(2) {
        assert!(pair[1].value >= pair[0].value);
    }
    let count = samples_named(&samples, "ff_job_duration_ms_count")[0].value;
    assert_eq!(buckets.last().unwrap().value, count);
    let sum = samples_named(&samples, "ff_job_duration_ms_sum")[0].value;
    assert_eq!(sum, 0.5 + 10.0 + 42.0 + 1e6);
}

#[test]
fn counters_are_monotone_across_scrapes() {
    let reg = Registry::new();
    let jobs = reg.counter("ff_jobs_completed_total", "Jobs");
    let mut last_jobs = -1.0;
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for scrape in 0..50u64 {
        jobs.add(rng.gen_range(0..4u64));
        let samples = parse_exposition(&reg.render()).unwrap();
        let j = samples_named(&samples, "ff_jobs_completed_total")[0].value;
        assert!(j >= last_jobs, "scrape {scrape}: {j} < {last_jobs}");
        last_jobs = j;
    }
}

#[test]
fn identical_state_renders_byte_identically() {
    let reg = Registry::new();
    reg.counter_with("ff_x_total", "x", &[("b", "2"), ("a", "1")])
        .inc();
    reg.histogram("ff_h_ms", "h", &[1.0]).observe(0.5);
    assert_eq!(reg.render(), reg.render());
}

/// Random registry contents for the parse-back property: names from a
/// safe alphabet, label values from a hostile alphabet (quotes,
/// backslashes, newlines, braces, spaces), and random update mixes.
fn random_registry(seed: u64) -> Registry {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reg = Registry::new();
    let name_alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz_0123456789".chars().collect();
    let label_alphabet: Vec<char> = "ab \"\\\n{},=".chars().collect();
    let families = rng.gen_range(1..6usize);
    for f in 0..families {
        // First char must be alphabetic/underscore; suffix is free-form.
        let mut name = String::from("ff_");
        for _ in 0..rng.gen_range(1..8usize) {
            name.push(name_alphabet[rng.gen_range(0..name_alphabet.len())]);
        }
        name.push_str(&format!("_{f}"));
        let series = rng.gen_range(1..4usize);
        // Kind is a per-family property (the registry asserts it), so
        // draw it once and vary only labels/updates per series.
        let kind = rng.gen_range(0..3u32);
        for _ in 0..series {
            let mut value = String::new();
            for _ in 0..rng.gen_range(0..6usize) {
                value.push(label_alphabet[rng.gen_range(0..label_alphabet.len())]);
            }
            let labels = [("kind", value.as_str())];
            match kind {
                0 => {
                    let c = reg.counter_with(&name, "random counter", &labels);
                    for _ in 0..rng.gen_range(0..5u32) {
                        c.add(rng.gen_range(0..1000u64));
                    }
                }
                1 => {
                    let g = reg.gauge_with(&name, "random gauge", &labels);
                    g.set(rng.gen_range(-1e6..1e6));
                    if rng.gen_range(0..4u32) == 0 {
                        g.set(f64::INFINITY);
                    }
                }
                _ => {
                    let h =
                        reg.histogram_with(&name, "random histogram", &[0.5, 5.0, 50.0], &labels);
                    for _ in 0..rng.gen_range(0..10u32) {
                        h.observe(rng.gen_range(0.0..200.0));
                    }
                }
            }
        }
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever ends up in the registry, `render()` output must parse
    /// back — and histogram invariants must hold on the parsed samples.
    #[test]
    fn rendered_pages_always_parse_back(seed in any::<u64>()) {
        let reg = random_registry(seed);
        let page = reg.render();
        let samples = match parse_exposition(&page) {
            Ok(s) => s,
            Err(e) => return Err(format!("seed {seed}: {e}\n{page}")),
        };
        // Histogram invariants: cumulative buckets, +Inf == _count.
        let mut names: Vec<&str> = samples
            .iter()
            .filter_map(|s| s.name.strip_suffix("_bucket"))
            .collect();
        names.dedup();
        for base in names {
            let bucket_name = format!("{base}_bucket");
            let count_name = format!("{base}_count");
            // Group buckets by label set (minus `le`).
            let mut by_series: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
            for s in samples.iter().filter(|s| s.name == bucket_name) {
                let key: Vec<String> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                by_series.entry(key.join(",")).or_default().push(s.value);
            }
            for (key, buckets) in &by_series {
                for pair in buckets.windows(2) {
                    prop_assert!(
                        pair[1] >= pair[0],
                        "seed {seed}: {bucket_name}{{{key}}} not cumulative: {buckets:?}"
                    );
                }
                let count = samples
                    .iter()
                    .find(|s| {
                        s.name == count_name
                            && s.labels
                                .iter()
                                .map(|(k, v)| format!("{k}={v:?}"))
                                .collect::<Vec<_>>()
                                .join(",")
                                == *key
                    })
                    .map(|s| s.value);
                prop_assert_eq!(buckets.last().copied(), count);
            }
        }
    }
}
