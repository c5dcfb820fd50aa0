//! Golden campaign digests: the *results* of the resilience campaigns,
//! pinned across commits.
//!
//! CI's replay jobs compare run A with run B of the same commit, and
//! `tests/chaos_corpus.rs` pins schedule digests and availability floors;
//! neither holds a campaign's scorecards, learning stats, incidents or
//! soak day-stats fixed from one commit to the next. This test does: it
//! renders each driver's report sections to JSON and pins the FNV-1a.
//! Values were taken at the commit before the campaign kernel was
//! extracted (`a63a0ab`, PR 15's parent) and must only ever change
//! together with an explained diff — an event-driven rewrite that moves
//! RNG draw order or emission order is such a diff; a refactor is not.

use painter::eval::chaos::{run_suite, sweep_sections};
use painter::eval::figs::fig10;
use painter::eval::soak::run_soak;
use painter::eval::{figure_section, Scale};
use painter::obs::{fnv1a, RunReport, Section};

fn report_digest(name: &str, sections: Vec<Section>) -> String {
    let mut report = RunReport::new(name);
    for section in sections {
        report.push_section(section);
    }
    format!("{:016x}", fnv1a(report.to_json().as_bytes()))
}

#[test]
fn campaign_digests_match_the_pinned_goldens() {
    let suite = run_suite(Scale::Test, 1).expect("suite");
    let got = [
        report_digest("chaos", suite.iter().flat_map(|o| o.sections()).collect()),
        report_digest("chaos-sweep", sweep_sections(Scale::Test, 1).expect("sweep")),
        report_digest("soak", run_soak(Scale::Test, 1).expect("soak").sections()),
        report_digest("fig10", vec![figure_section(&fig10::run(Scale::Test))]),
    ];
    // Telemetry-off builds record no flight-recorder events, so the
    // incident fields and `soak.events` legitimately differ there.
    let want = if painter::obs::enabled() {
        ["ffaff1bdb2603da4", "665298d1ed71bf8a", "d804df4999c59806", "b94c8196d27f7475"]
    } else {
        ["0f40f8dfdd280008", "665298d1ed71bf8a", "788b4aaf7f908d50", "b94c8196d27f7475"]
    };
    assert_eq!(got, want, "a campaign digest moved: the drivers are no longer bit-identical");
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn pop_outage_timeline_matches_the_pinned_golden() {
    use painter::eval::chaos::{run_campaign, standard_suite, ChaosTiming};
    let timing = ChaosTiming::for_scale(Scale::Test);
    let outage = run_campaign(&standard_suite(&timing)[0], &timing, 1).expect("campaign");
    assert_eq!(outage.schedule.name, "pop-outage");
    let timeline = painter::eval::incidents::render_timeline(
        &outage.schedule,
        &outage.events,
        &outage.incidents,
    );
    assert_eq!(format!("{:016x}", fnv1a(timeline.as_bytes())), "6fbc398ef91861f2");
}
