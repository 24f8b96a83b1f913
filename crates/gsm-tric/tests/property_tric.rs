//! Property tests for TRIC's notifications on random streams: adding
//! queries never changes what an existing query is told, and a query is
//! only ever reported for an update whose label it uses. Agreement with the
//! other engines, batched and per update, is the differential harness's
//! (`tests/differential` at the workspace root).

use proptest::prelude::*;

use gsm_core::interner::{Sym, SymbolTable};
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;
use gsm_core::ContinuousEngine;
use gsm_tric::TricEngine;

fn fixed_queries(symbols: &mut SymbolTable) -> Vec<QueryPattern> {
    [
        "?a -e0-> ?b; ?b -e1-> ?c",
        "?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a",
        "?h -e0-> ?x; ?h -e2-> ?y",
        "?a -e0-> v3",
        "?a -e2-> ?a",
        "?a -e0-> ?b; ?b -e0-> ?c; ?c -e1-> ?d",
        "?x -e1-> ?y; ?z -e1-> ?y",
    ]
    .iter()
    .map(|t| QueryPattern::parse(t, symbols).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Notifications are monotone in the query set: registering additional
    /// queries never removes notifications for the originally registered one.
    #[test]
    fn extra_queries_never_suppress_existing_notifications(
        stream in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..100),
    ) {
        let mut symbols = SymbolTable::new();
        let target = QueryPattern::parse("?a -e0-> ?b; ?b -e1-> ?c", &mut symbols).unwrap();
        let extras = fixed_queries(&mut symbols);
        let labels: Vec<Sym> = (0..3).map(|i| symbols.intern(&format!("e{i}"))).collect();
        let vertices: Vec<Sym> = (0..5).map(|i| symbols.intern(&format!("v{i}"))).collect();

        let mut solo = TricEngine::tric_plus();
        let solo_id = solo.register_query(&target).unwrap();
        let mut crowded = TricEngine::tric_plus();
        let crowded_id = crowded.register_query(&target).unwrap();
        for q in &extras {
            crowded.register_query(q).unwrap();
        }

        for &(l, s, t) in &stream {
            let u = Update::new(labels[l as usize], vertices[s as usize], vertices[t as usize]);
            let solo_hit = solo
                .apply_update(u)
                .matches
                .iter()
                .find(|m| m.query == solo_id)
                .map(|m| m.new_embeddings);
            let crowded_hit = crowded
                .apply_update(u)
                .matches
                .iter()
                .find(|m| m.query == crowded_id)
                .map(|m| m.new_embeddings);
            prop_assert_eq!(solo_hit, crowded_hit, "crowding changed the target query's result");
        }
    }

    /// The engine never reports a query for an update whose label does not
    /// occur anywhere in that query.
    #[test]
    fn reported_queries_always_contain_the_update_label(
        stream in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..100),
    ) {
        let mut symbols = SymbolTable::new();
        let queries = fixed_queries(&mut symbols);
        let labels: Vec<Sym> = (0..3).map(|i| symbols.intern(&format!("e{i}"))).collect();
        let vertices: Vec<Sym> = (0..5).map(|i| symbols.intern(&format!("v{i}"))).collect();
        let mut engine = TricEngine::tric_plus();
        for q in &queries {
            engine.register_query(q).unwrap();
        }
        for &(l, s, t) in &stream {
            let label = labels[l as usize];
            let u = Update::new(label, vertices[s as usize], vertices[t as usize]);
            for m in engine.apply_update(u).matches {
                let q = &queries[m.query.index()];
                prop_assert!(
                    q.labels().contains(&label),
                    "query {:?} reported for unrelated label",
                    m.query
                );
                prop_assert!(m.new_embeddings > 0);
            }
        }
    }
}
