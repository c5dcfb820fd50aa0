//! Regenerates the paper's figures.
//!
//! ```text
//! figures <fig-id>... [flags]        # e.g. figures fig6a fig10
//! figures all [flags]                # every figure, paper order
//! figures chaos [flags]              # chaos resilience suite (chaos.* sections)
//! figures chaos-sweep [flags]        # TM detection-knob sweep vs link blackholes
//! figures chaos-search [flags]       # adversarial scenario search (chaos.search.*)
//! figures guard-tune [flags]         # guard co-evolution vs the corpus (guard.tune.*)
//! figures farm [flags]               # multi-seed corpus farm, one class per failure mode
//! figures lp-gap [flags]             # exact LP vs greedy optimality gap (lp.*)
//! figures scale [flags]              # million-UG scale sweep (scale.* sections)
//! figures soak [flags]               # long-horizon soak campaign (soak.* sections)
//! figures explain [flags]            # causal timeline + incident attribution
//! figures list                       # available ids
//!
//! --test             CI-sized inputs (default: paper-sized, use release)
//! --seed <n>         chaos campaign / search / tune seed (default 1)
//! --budget <n>       chaos-search candidate evaluations, or guard-tune
//!                    guard candidates per round (default 12)
//! --pin <dir>        chaos-search/farm: write shrunk reproducers into <dir>
//! --seeds <a,b,..>   farm: comma-separated seed list (default: seed,seed+1)
//! --guard <preset>   chaos-search: defend with this guard preset
//!                    ("default" or "tuned"; entries are tagged with it)
//! --rounds <n>       guard-tune: adversary→guard co-evolution rounds
//!                    (default 2)
//! --adv-budget <n>   guard-tune: adversary evaluations per round
//!                    (default 8)
//! --corpus <dir>     guard-tune: corpus of pinned reproducers to tune
//!                    against (default "corpus"; missing dir = empty)
//! --markdown         EXPERIMENTS-style summary rows (id | title | notes)
//! --csv              full per-series CSV dump (the old default)
//! --report <p>.json  also write the structured RunReport as JSON
//! --scenario <path>  explain: a pinned CorpusEntry or raw ScenarioSpec
//!                    JSON (default: the standard suite's pop outage)
//! --chrome <p>.json  explain: also write the Chrome-trace export
//! ```
//!
//! `figures explain` replays one campaign with the flight recorder on
//! and prints the deterministic event timeline, the per-fault incident
//! records, and an `explain.fnv1a` digest — byte-identical across
//! same-seed replays (the `replay-determinism` CI job holds it to that).
//!
//! The default output is the structured run-report table built from
//! [`painter_eval::figures_report`]; `--report` writes the same data
//! machine-readably, with every series' points included.

use painter_eval::chaos::{run_campaign, standard_suite, ChaosTiming};
use painter_eval::figs::{run, ALL_FIGURES};
use painter_eval::incidents::render_timeline;
use painter_eval::{figures_report, Figure, Scale};
use rayon::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" {
        println!(
            "available figures: {} chaos chaos-sweep chaos-search guard-tune farm lp-gap scale \
             soak explain",
            ALL_FIGURES.join(" ")
        );
        println!(
            "usage: figures <fig-id>...|all|chaos|chaos-sweep|chaos-search|guard-tune|farm|lp-gap|\
             scale|soak|explain \
             [--test] [--seed <n>] [--seeds <a,b,..>] [--budget <n>] [--pin <dir>] \
             [--guard <preset>] [--rounds <n>] [--adv-budget <n>] [--corpus <dir>] \
             [--markdown|--csv] [--report <path>.json] \
             [--scenario <path>.json] [--chrome <path>.json]"
        );
        return;
    }
    if args[0] == "explain" {
        explain(&args);
        return;
    }
    let scale = if args.iter().any(|a| a == "--test") { Scale::Test } else { Scale::Paper };
    let markdown = args.iter().any(|a| a == "--markdown");
    let csv = args.iter().any(|a| a == "--csv");
    let report_path = args.iter().position(|a| a == "--report").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--report requires a path argument");
            std::process::exit(2);
        })
    });
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .map(|i| {
            args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--seed requires an integer argument");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let budget: usize = args
        .iter()
        .position(|a| a == "--budget")
        .map(|i| {
            args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--budget requires an integer argument");
                std::process::exit(2);
            })
        })
        .unwrap_or(12);
    let pin_dir = args.iter().position(|a| a == "--pin").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--pin requires a directory argument");
            std::process::exit(2);
        })
    });
    let guard = args
        .iter()
        .position(|a| a == "--guard")
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--guard requires a preset name (default|tuned)");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "default".to_string());
    let rounds: usize = args
        .iter()
        .position(|a| a == "--rounds")
        .map(|i| {
            args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--rounds requires an integer argument");
                std::process::exit(2);
            })
        })
        .unwrap_or(2);
    let adv_budget: usize = args
        .iter()
        .position(|a| a == "--adv-budget")
        .map(|i| {
            args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--adv-budget requires an integer argument");
                std::process::exit(2);
            })
        })
        .unwrap_or(8);
    let corpus_dir = args
        .iter()
        .position(|a| a == "--corpus")
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--corpus requires a directory argument");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "corpus".to_string());
    let farm_seeds: Vec<u64> = args
        .iter()
        .position(|a| a == "--seeds")
        .map(|i| {
            let list = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--seeds requires a comma-separated integer list");
                std::process::exit(2);
            });
            list.split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--seeds: '{s}' is not an integer");
                        std::process::exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![seed, seed + 1]);
    let mut skip_next = false;
    let mut requested: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_FIGURES.to_vec()
    } else {
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--report"
                    || *a == "--seed"
                    || *a == "--seeds"
                    || *a == "--budget"
                    || *a == "--pin"
                    || *a == "--guard"
                    || *a == "--rounds"
                    || *a == "--adv-budget"
                    || *a == "--corpus"
                    || *a == "--scenario"
                    || *a == "--chrome"
                {
                    skip_next = true;
                }
                !a.starts_with("--")
            })
            .map(String::as_str)
            .collect()
    };
    // `chaos`, `chaos-sweep`, and `chaos-search` are not figures: they
    // run the resilience suite / detection sweep / adversarial search
    // and land as chaos.* sections on the same report.
    let run_chaos = args.iter().any(|a| a == "chaos");
    let run_sweep = args.iter().any(|a| a == "chaos-sweep");
    let run_search = args.iter().any(|a| a == "chaos-search");
    let run_tune = args.iter().any(|a| a == "guard-tune");
    let run_farm = args.iter().any(|a| a == "farm");
    let run_lp = args.iter().any(|a| a == "lp-gap");
    let run_scale_sweep = args.iter().any(|a| a == "scale");
    let run_soak = args.iter().any(|a| a == "soak");
    requested.retain(|id| {
        *id != "chaos"
            && *id != "chaos-sweep"
            && *id != "chaos-search"
            && *id != "guard-tune"
            && *id != "farm"
            && *id != "lp-gap"
            && *id != "scale"
            && *id != "soak"
    });

    // Figure bodies are independent; fan them out over the scoring pool
    // (PAINTER_THREADS-aware). The ordered collect keeps the output in
    // request order, and any nested orchestrator installs its own pool on
    // the worker it lands on.
    let pool = painter_core::parallel::build_pool(None);
    let results: Vec<(&str, Option<Figure>)> =
        pool.install(|| requested.par_iter().map(|&id| (id, run(id, scale))).collect());
    let mut figures = Vec::new();
    let mut failed = false;
    for (id, fig) in results {
        match fig {
            Some(fig) => figures.push(fig),
            None => {
                eprintln!("unknown figure id: {id} (try `figures list`)");
                failed = true;
            }
        }
    }

    let mut report = figures_report("figures", &figures);
    if run_chaos {
        match painter_eval::chaos::suite_sections(scale, seed) {
            Ok(sections) => {
                for section in sections {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("chaos suite failed: {e}");
                failed = true;
            }
        }
    }
    if run_sweep {
        match painter_eval::chaos::sweep_sections(scale, seed) {
            Ok(sections) => {
                for section in sections {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("chaos sweep failed: {e}");
                failed = true;
            }
        }
    }
    if run_search {
        let config = painter_chaos::SearchConfig::new(seed, budget);
        match painter_eval::chaos_search::run_search_against(scale, config, &guard, &[]) {
            Ok(search_run) => {
                for section in search_run.sections() {
                    report.push_section(section);
                }
                if let Some(dir) = &pin_dir {
                    match search_run.pin_corpus(std::path::Path::new(dir)) {
                        Ok(paths) => {
                            for p in paths {
                                eprintln!("pinned reproducer: {}", p.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("failed to pin corpus into {dir}: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("chaos search failed: {e}");
                failed = true;
            }
        }
    }
    if run_farm {
        match painter_eval::chaos_search::run_corpus_farm(scale, &farm_seeds, budget, &guard) {
            Ok(farm_run) => {
                for section in farm_run.sections() {
                    report.push_section(section);
                }
                if let Some(dir) = &pin_dir {
                    match farm_run.pin_corpus(std::path::Path::new(dir)) {
                        Ok(paths) => {
                            for p in paths {
                                eprintln!("pinned farm reproducer: {}", p.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("failed to pin farm corpus into {dir}: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("corpus farm failed: {e}");
                failed = true;
            }
        }
    }
    if run_tune {
        let dir = std::path::Path::new(&corpus_dir);
        let corpus = if dir.is_dir() {
            match painter_eval::guard_tune::load_corpus(dir) {
                Ok(corpus) => corpus,
                Err(e) => {
                    eprintln!("guard tune failed: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            eprintln!("no corpus dir {corpus_dir}; tuning against the standard suite only");
            Vec::new()
        };
        let config = painter_eval::guard_tune::GuardTuneConfig {
            seed,
            rounds,
            tune_budget: budget,
            adversary_budget: adv_budget,
        };
        match painter_eval::guard_tune::run_guard_tune(scale, config, &corpus) {
            Ok(tune_run) => {
                for section in tune_run.sections() {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("guard tune failed: {e}");
                failed = true;
            }
        }
    }
    if run_lp {
        match painter_eval::lp_gap::lp_gap_sections(scale, seed) {
            Ok(sections) => {
                for section in sections {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("lp gap failed: {e}");
                failed = true;
            }
        }
    }
    if run_scale_sweep {
        let config = painter_eval::scale::ScaleConfig::for_scale(scale, seed);
        match painter_eval::scale::run_scale(scale, config) {
            Ok(scale_run) => {
                for section in scale_run.sections() {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("scale sweep failed: {e}");
                failed = true;
            }
        }
    }
    if run_soak {
        // Without --test, `figures soak` runs the full multi-day
        // campaign (`Scale::Soak` and `Scale::Paper` share the shape).
        let soak_scale = if scale == Scale::Test { Scale::Test } else { Scale::Soak };
        match painter_eval::soak::run_soak(soak_scale, seed) {
            Ok(outcome) => {
                for section in outcome.sections() {
                    report.push_section(section);
                }
            }
            Err(e) => {
                eprintln!("soak campaign failed: {e}");
                failed = true;
            }
        }
    }
    if markdown {
        println!("| Figure | Title | Measured vs paper |");
        println!("|---|---|---|");
        for fig in &figures {
            println!("{}", fig.render_markdown_row());
        }
    } else if csv {
        for fig in &figures {
            println!("{}", fig.render());
        }
    } else {
        print!("{}", report.render_table());
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write report to {path}: {e}");
            failed = true;
        } else {
            eprintln!("wrote report: {path}");
        }
    }
    if failed {
        std::process::exit(2);
    }
}

/// `figures explain`: replays one campaign with the flight recorder on
/// and prints the causal timeline, the per-fault incident records, and
/// the FNV-1a replay digest of that explanation.
fn explain(args: &[String]) {
    let arg_after = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        })
    };
    let seed_arg: Option<u64> = arg_after("--seed").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--seed requires an integer argument");
            std::process::exit(2);
        })
    });
    let scenario = arg_after("--scenario");
    let chrome_path = arg_after("--chrome");
    let report_path = arg_after("--report");
    let flag_scale = if args.iter().any(|a| a == "--test") { Scale::Test } else { Scale::Paper };

    // A pinned corpus reproducer carries its own (spec, seed, scale);
    // a raw ScenarioSpec uses the command-line seed and scale; with no
    // --scenario the standard suite's pop outage is replayed.
    let (spec, scale, seed) = match &scenario {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(2);
            });
            match painter_chaos::CorpusEntry::from_json(&text) {
                Ok(entry) => {
                    let scale = if entry.scale == "paper" { Scale::Paper } else { Scale::Test };
                    (entry.spec, scale, seed_arg.unwrap_or(entry.seed))
                }
                Err(_) => match painter_chaos::ScenarioSpec::from_json(&text) {
                    Ok(spec) => (spec, flag_scale, seed_arg.unwrap_or(1)),
                    Err(e) => {
                        eprintln!("{path} is neither a CorpusEntry nor a ScenarioSpec: {e}");
                        std::process::exit(2);
                    }
                },
            }
        }
        None => {
            let timing = ChaosTiming::for_scale(flag_scale);
            (standard_suite(&timing).remove(0), flag_scale, seed_arg.unwrap_or(1))
        }
    };
    let timing = ChaosTiming::for_scale(scale);
    let outcome = match run_campaign(&spec, &timing, seed) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("explain campaign failed: {e}");
            std::process::exit(2);
        }
    };

    let timeline = render_timeline(&outcome.schedule, &outcome.events, &outcome.incidents);
    print!("{timeline}");
    println!("explain.fnv1a {:016x}", painter_obs::fnv1a(timeline.as_bytes()));

    let mut failed = false;
    if let Some(path) = &chrome_path {
        let json = painter_obs::chrome_trace_json(&outcome.events);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write chrome trace to {path}: {e}");
            failed = true;
        } else {
            eprintln!("wrote chrome trace: {path}");
        }
    }
    if let Some(path) = &report_path {
        let mut report = painter_obs::RunReport::new("explain");
        for section in outcome.sections() {
            report.push_section(section);
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write report to {path}: {e}");
            failed = true;
        } else {
            eprintln!("wrote report: {path}");
        }
    }
    if failed {
        std::process::exit(2);
    }
}
