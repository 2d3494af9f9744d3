//! Umbrella crate of the WebQA reproduction workspace.
//!
//! Hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`); the functionality lives in the member
//! crates:
//!
//! * [`webqa`] — the session-oriented engine (staged pipeline, shared
//!   page store, result caches);
//! * [`webqa_dsl`] — the neurosymbolic DSL;
//! * [`webqa_synth`] — optimal synthesis;
//! * [`webqa_select`] — transductive program selection;
//! * [`webqa_corpus`] — the 25 tasks and the synthetic page corpus;
//! * [`webqa_baselines`] — BERTQA / HYB / EntExtract;
//! * [`webqa_html`] / [`webqa_nlp`] / [`webqa_metrics`] — substrates.
//!
//! # Workspace layout
//!
//! The workspace is a stack of stateless library crates with one thin
//! binary on top. Arrows point from dependent to dependency:
//!
//! ```text
//!        webqa_cli (bin)      webqa_bench (8 bench targets)
//!              │  │                │
//!              │  ▼                │
//!              │ webqa_server      │
//!              │ (resident daemon) │
//!              │       │           │
//!              └───────┼───────────┘
//!                      ▼
//!                   webqa  ──────────────┐
//!                   │  │                 │
//!          ┌────────┘  └──────┐          │
//!          ▼                  ▼          ▼
//!     webqa_synth        webqa_select   webqa_corpus   webqa_baselines
//!          │                  │          │    │          │
//!          └───────┬──────────┘          │    │          │
//!                  ▼                     │    │          │
//!              webqa_dsl ◄───────────────┘    │          │
//!               │  │  │                       │          │
//!       ┌───────┘  │  └────────┐              │          │
//!       ▼          ▼           ▼              ▼          ▼
//!  webqa_html  webqa_nlp  webqa_metrics  (html, nlp, metrics again)
//! ```
//!
//! * **Substrates** (`webqa_html`, `webqa_nlp`, `webqa_metrics`) have no
//!   in-workspace dependencies. HTML parsing, the simulated NLP modules,
//!   and the token-level F₁ / Hamming scoring kernel.
//! * **DSL** (`webqa_dsl`) builds the page-tree query language on the
//!   substrates: AST, parser, printer, evaluator, normalizer, linter,
//!   and the abstract interpreter (`webqa_dsl::analysis`) — a sound
//!   static analyzer over (program, context) pairs with three verdict
//!   families (provably-false and subsumed guards, provably-empty
//!   extractors, equivalence up to normalization via canonical keys)
//!   that feeds the linter's semantic `DeadBranch`, the synthesizer's
//!   analysis prune, and the `check` surfaces of the CLI and server;
//!   `tests/analysis_soundness.rs` confirms every verdict against the
//!   definitional evaluator on random corpus pages.
//! * **Search** (`webqa_synth`, `webqa_select`) implements the paper's
//!   two phases: optimal enumerative synthesis with the `UB = 2R/(1+R)`
//!   pruning bound, then transductive ensemble selection. Synthesis
//!   additionally consults the analyzer to skip candidates it proves
//!   dead before building or scoring them (`SynthConfig::analysis`,
//!   counted by the `analysis_pruned_*` stats and proven
//!   result-preserving by `stats_snapshot.rs` and `synth_parity.rs`).
//! * **Engine** (`webqa`) wires synthesis and selection into the
//!   session-oriented `Engine`: pages are parsed fallibly once into a
//!   shared `PageStore` (content-addressed `PageId` handles, zero
//!   deep-clones on the run path), the pipeline runs as inspectable
//!   stages (`prepare` → `synthesize` → `select` → `answers`) so the
//!   interactive-labeling loop and the ablations can drive any stage
//!   alone, errors are a typed `webqa::Error`, and a run executes on
//!   the calling thread (the engine spawns no threads). A one-shot
//!   run's `RunResult` is its reply: the selected program, its answers
//!   and the synthesis figures; the optimal-program set is reached
//!   through the stages only.
//!   The engine additionally owns the cross-request caches, two tiers
//!   of one exact-keyed LRU: per-page feature tables keyed by (page,
//!   question, keywords), and completed runs keyed by the exact task
//!   (~0.004 MB resident per entry on a 2-core Xeon at `serve_open`
//!   scale, down from 0.21 MB when results kept every optimal program);
//!   all pure values, so hits and evictions change latency, never
//!   results (`webqa::CacheStats` counts both tiers, and a disabled tier
//!   counts nothing). The caches live in memory only and end with the
//!   process.
//!   **Workloads** (`webqa_corpus`, `webqa_baselines`) provide the 25
//!   evaluation tasks, the seeded page generators, and the three
//!   baseline systems.
//! * **Serving** ([`webqa_server`]) keeps engine state — and its
//!   caches — resident in a daemon of digest-routed engine shards, fed
//!   by one bounded admission queue and one worker pool, behind a
//!   line-delimited JSON protocol and an HTTP/1.1 facade. Its crate
//!   docs are the one wire spec: operations, error kinds, deadlines,
//!   shedding, and the [`webqa_server::StatsSnapshot`]
//!   schema. `tests/serve_api.rs` and `tests/serve_overload.rs` prove
//!   serving observationally invisible and bounded.
//! * **Apps** (`webqa_cli`, `webqa_bench`) stay thin: argument parsing and
//!   report formatting only, every decision delegated to the libraries
//!   (`webqa-cli serve` / `client` front the daemon over either
//!   protocol). Performance is measured by one harness, `perfbench/`
//!   (its own Cargo workspace, see `BENCHMARK.json`); the
//!   `webqa_bench` targets regenerate the paper's tables and figures.
//!
//! This umbrella crate (`webqa-repro`) exports nothing: it is the host of
//! the integration tests and examples, which `use` the member crates
//! directly.
//!
//! Third-party dependencies (`rand`, `proptest`, `serde`, `serde_json`)
//! resolve to minimal offline stand-ins vendored under `compat/` — see
//! `compat/README.md` for exactly what subset each implements and how to
//! swap the real crates back in.
