//! §IV-A ablation — embedding generator: Word2Vec on walks (paper
//! default) vs PV-DBOW per-node document vectors (a graph-native
//! DeepWalk-style alternative).
//!
//! Paper context (§IV-A, §VI): the paper found graph-native alternatives
//! "comparable [in quality] ... but more resources intensive" — but the
//! alternatives it cites (DeepWalk \[36\], node2vec \[37\]) are themselves
//! Word2Vec over (biased) walks; that comparison is reproduced in
//! `ablation_walk_strategy`, where quality is indeed comparable. This
//! bench measures a *different* alternative — PV-DBOW with one document
//! per node — and finds it substantially weaker: a DBOW doc vector only
//! models the first-order word distribution of its own walks, losing the
//! higher-order signal of metadata nodes appearing in *each other's*
//! walks that Word2Vec's context windows capture. A negative result
//! supporting the paper's default; the table this bench prints is its
//! only record.

use tdmatch_bench::{bench_config, evaluate, run_with_config};
use tdmatch_core::config::EmbedMethod;
use tdmatch_datasets::corona::SentenceKind;
use tdmatch_datasets::{audit, claims, corona, imdb, Scale, Scenario};

fn main() {
    let scenarios: Vec<Scenario> = vec![
        imdb::generate(Scale::Tiny, 42, true),
        corona::generate(Scale::Tiny, 42, SentenceKind::Generated),
        audit::generate(Scale::Tiny, 42),
        claims::snopes(Scale::Tiny, 42),
    ];
    let methods = [
        ("w2v-walks", EmbedMethod::WalkWord2Vec),
        ("d2v-walks", EmbedMethod::WalkDoc2Vec),
    ];
    println!("\n=== Ablation — embedding method (MAP@5 / train s) ===");
    print!("{:<12}", "scenario");
    for (name, _) in &methods {
        print!(" {name:>16}");
    }
    println!();
    for scenario in &scenarios {
        print!("{:<12}", scenario.name);
        for (_, method) in &methods {
            let mut config = bench_config(&scenario.config);
            config.embed_method = *method;
            let (run, _) = run_with_config(scenario, config, 20, false);
            let m = evaluate(&run, scenario);
            print!(" {:>8.3}/{:<7.2}", m.map_at[1], run.train_secs);
        }
        println!();
    }
}
