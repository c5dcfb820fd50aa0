//! Experiment harnesses reproducing every figure of the PAINTER paper.
//!
//! Each `figs::figN` module builds its scenario, runs the experiment, and
//! returns a [`Figure`]: named data series (the same series the paper
//! plots) plus notes comparing the measured shape against the paper's
//! claims. The `figures` binary prints them; `EXPERIMENTS.md` records the
//! outcomes.
//!
//! Every harness accepts a [`Scale`]: `Test` runs in seconds for CI,
//! `Paper` uses evaluation-size inputs (run in release).

mod campaign;
pub mod chaos;
pub mod chaos_search;
pub mod figs;
pub mod guard_tune;
pub mod helpers;
pub mod incidents;
pub mod lp_gap;
pub mod report;
pub mod scale;
pub mod scenario;
pub mod soak;

pub use helpers::{realized_benefit, RealizedBenefit};
pub use report::{figure_section, figures_report};
pub use scenario::{Scale, Scenario};

/// One plottable series: `(x, y)` points under a legend name.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

/// A reproduced figure: identifier, axes, series, and comparison notes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// e.g. "fig6a".
    pub id: &'static str,
    pub title: &'static str,
    pub x_label: &'static str,
    pub y_label: &'static str,
    pub series: Vec<Series>,
    /// Human-readable observations (paper claim vs measured).
    pub notes: Vec<String>,
}

impl Figure {
    /// Renders a one-row markdown summary (id, title, notes) for report
    /// generation; `figures all --markdown` stitches these into an
    /// EXPERIMENTS-style table.
    pub fn render_markdown_row(&self) -> String {
        let notes = self.notes.iter().map(String::as_str).collect::<Vec<_>>().join("<br>");
        format!("| {} | {} | {} |", self.id, self.title, notes)
    }

    /// Renders the figure as aligned text (series as CSV blocks).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("x: {} | y: {}\n", self.x_label, self.y_label));
        for s in &self.series {
            out.push_str(&format!("-- series: {}\n", s.name));
            for (x, y) in &s.points {
                out.push_str(&format!("{x:.4},{y:.4}\n"));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_all_parts() {
        let fig = Figure {
            id: "figX",
            title: "demo",
            x_label: "x",
            y_label: "y",
            series: vec![Series::new("a", vec![(1.0, 2.0)])],
            notes: vec!["hello".into()],
        };
        let text = fig.render();
        assert!(text.contains("figX"));
        assert!(text.contains("series: a"));
        assert!(text.contains("1.0000,2.0000"));
        assert!(text.contains("note: hello"));
    }
}
