//! Reads counters and histograms out of a Prometheus text exposition
//! (a server's `GET /metrics` page, or a rendered in-process registry),
//! parsed with `ff_obs::parse_exposition`.

use ff_obs::{parse_exposition, Registry, Sample};

pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    pub fn parse(page: &str) -> Result<Scrape, String> {
        Ok(Scrape {
            samples: parse_exposition(page)?,
        })
    }

    /// Scrapes an in-process registry through its own exposition page.
    pub fn registry(registry: &Registry) -> Result<Scrape, String> {
        Scrape::parse(&registry.render())
    }

    /// Sum of every series named `name`, across label sets (0 if absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Migration accepts over offers recorded by `Solver::observe`; 0
    /// when no offer was made.
    pub fn migration_accept_ratio(&self) -> f64 {
        let offers = self.sum("ff_engine_migration_offers_total");
        let accepts = self.sum("ff_engine_migration_accepts_total");
        if offers > 0.0 {
            accepts / offers
        } else {
            0.0
        }
    }

    /// Mean observation of histogram family `name` (`_sum / _count`,
    /// over all label sets); 0 when nothing was observed.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let count = self.sum(&format!("{name}_count"));
        if count == 0.0 {
            0.0
        } else {
            self.sum(&format!("{name}_sum")) / count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_counters_across_labels_and_averages_histograms() {
        let registry = Registry::new();
        registry
            .counter_with("ff_x_total", "x", &[("kind", "a")])
            .add(3);
        registry
            .counter_with("ff_x_total", "x", &[("kind", "b")])
            .add(4);
        let h = registry.histogram("ff_wait_ms", "wait", &[1.0, 10.0]);
        h.observe(2.0);
        h.observe(6.0);
        let page = registry.render();
        let scrape = Scrape::parse(&page).unwrap();
        assert_eq!(scrape.sum("ff_x_total"), 7.0);
        assert_eq!(scrape.sum("ff_missing_total"), 0.0);
        assert_eq!(scrape.histogram_mean("ff_wait_ms"), 4.0);
        assert_eq!(scrape.histogram_mean("ff_missing"), 0.0);
        assert_eq!(Scrape::registry(&registry).unwrap().sum("ff_x_total"), 7.0);
    }

    #[test]
    fn malformed_pages_are_rejected() {
        assert!(Scrape::parse("ff_x_total{kind=\"a\" 3\n").is_err());
        assert!(Scrape::parse("# TYPE ff_x bogus\n").is_err());
    }
}
