//! String-keyed scheduler specs and the extensible factory registry.
//!
//! The paper's evaluation is a closed set of nine algorithms; the
//! registry opens that set. A scheduler is named by a [`SchedulerSpec`]
//! — a kebab-case key plus typed `name=value` parameters — and built by
//! a [`SchedulerRegistry`] that maps keys to factories:
//!
//! ```
//! use dfrs_sched::{SchedulerRegistry, SchedulerSpec};
//!
//! let reg = SchedulerRegistry::builtin();
//! let spec: SchedulerSpec = "dynmcb8-per:T=300".parse().unwrap();
//! let sched = reg.build(&spec).unwrap();
//! assert_eq!(sched.name(), "DynMCB8-per 300");
//! ```
//!
//! User code registers its own factories instead of editing an enum:
//!
//! ```
//! use dfrs_sched::SchedulerRegistry;
//!
//! let mut reg = SchedulerRegistry::builtin();
//! reg.register_fn("greedy-linear", "GREEDY-PMTN with flow/vt priority", &[], |_| {
//!     SchedulerRegistry::builtin().build_str("greedy-pmtn:exponent=1")
//! });
//! assert_eq!(reg.build_str("greedy-linear").unwrap().name(), "Greedy-pmtn");
//! ```
//!
//! ## Spec grammar
//!
//! `key[:name=value[,name=value]*]`. Keys and parameter names are
//! case-insensitive (`DynMCB8-PER:T=300` is `dynmcb8-per:t=300`); values
//! are kept verbatim. A key is spelled exactly as registered: the
//! paper-table names (`"DynMCB8-per 600"`) are display labels, not
//! specs. The sharded coordinator has its own form,
//! `sharded:<inner-spec>:shards=N`.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use dfrs_core::constants::DEFAULT_PERIOD_SECS;
use dfrs_sim::Scheduler;

use crate::batch::{Batch, Head, Never};
use crate::conservative::All;
use crate::drf::DominantShare;
use crate::dynmcb8::{MaxMinYield, PackerChoice, Repacker, Trigger};
use crate::greedy::Greedy;
use crate::stretch_per::MinMaxStretch;

/// Why a spec failed to parse, resolve, or build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Empty (or all-whitespace) spec string.
    Empty,
    /// The key is not registered. Carries the registry's keys so the
    /// message can point at the nearest valid spelling.
    UnknownKey {
        /// The normalized key that failed to resolve.
        key: String,
        /// All keys the registry knows, sorted.
        known: Vec<String>,
    },
    /// Malformed parameter list (missing `=`, empty name, …).
    Syntax {
        /// The offending fragment.
        fragment: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A parameter the factory does not accept.
    UnknownParam {
        /// The spec key.
        key: String,
        /// The rejected parameter name.
        param: String,
        /// Parameters the factory accepts.
        allowed: Vec<String>,
    },
    /// A parameter value that failed to parse or validate.
    InvalidParam {
        /// The spec key.
        key: String,
        /// The parameter name.
        param: String,
        /// The rejected value.
        value: String,
        /// What a valid value looks like.
        expected: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty scheduler spec"),
            SpecError::UnknownKey { key, known } => {
                write!(f, "unknown scheduler {key:?}; known: {}", known.join(", "))?;
                if let Some(near) = nearest(key, known) {
                    write!(f, " (did you mean {near:?}?)")?;
                }
                Ok(())
            }
            SpecError::Syntax { fragment, detail } => {
                write!(f, "bad spec fragment {fragment:?}: {detail}")
            }
            SpecError::UnknownParam {
                key,
                param,
                allowed,
            } => {
                if allowed.is_empty() {
                    write!(f, "scheduler {key:?} takes no parameters, got {param:?}")
                } else {
                    write!(
                        f,
                        "scheduler {key:?} has no parameter {param:?}; allowed: {}",
                        allowed.join(", ")
                    )
                }
            }
            SpecError::InvalidParam {
                key,
                param,
                value,
                expected,
            } => write!(
                f,
                "invalid value {value:?} for {key}:{param} (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// The registry key with the smallest edit distance to `key`, if any is
/// close enough to plausibly be a typo.
fn nearest<'a>(key: &str, known: &'a [String]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (edit_distance(key, k), k.as_str()))
        .filter(|(d, k)| *d <= 2.max(k.len() / 3))
        .min_by_key(|(d, _)| *d)
        .map(|(_, k)| k)
}

/// Classic O(nm) Levenshtein distance (specs are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Typed parameter bag of a [`SchedulerSpec`]: ordered `name → value`
/// pairs with accessors that produce [`SpecError`]s on bad values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SpecParams {
    map: BTreeMap<String, String>,
    key: String,
}

impl SpecParams {
    /// Raw value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// `name` as a float, or `default` when absent.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, SpecError> {
        match self.map.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SpecError::InvalidParam {
                key: self.key.clone(),
                param: name.to_string(),
                value: v.clone(),
                expected: "a number".into(),
            }),
        }
    }

    /// `name` as a strictly positive float, or `default` when absent.
    pub fn positive_f64_or(&self, name: &str, default: f64) -> Result<f64, SpecError> {
        let v = self.f64_or(name, default)?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(SpecError::InvalidParam {
                key: self.key.clone(),
                param: name.to_string(),
                value: format!("{v}"),
                expected: "a positive number".into(),
            })
        }
    }

    /// Parameter names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Whether no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A parsed scheduler name: registry key plus parameters.
///
/// `Display` renders the canonical form (`key` or `key:a=1,b=2` with
/// sorted parameter names), and [`FromStr`] parses it back — specs
/// round-trip through their string form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedulerSpec {
    key: String,
    params: SpecParams,
}

impl SchedulerSpec {
    /// A spec with no parameters. The key is normalized (lowercase,
    /// `_`/space → `-`) but not validated against any registry.
    pub fn new(key: &str) -> Self {
        let key = normalize_key(key);
        SchedulerSpec {
            params: SpecParams {
                map: BTreeMap::new(),
                key: key.clone(),
            },
            key,
        }
    }

    /// Add (or replace) a parameter; names normalize to lowercase.
    ///
    /// # Panics
    ///
    /// Panics if the name or value is empty or contains the grammar's
    /// reserved characters (`:`, `,`, `=`) — such a spec could not
    /// round-trip through its `Display` form.
    pub fn with(mut self, name: &str, value: impl ToString) -> Self {
        let name = name.trim().to_ascii_lowercase();
        let value = value.to_string().trim().to_string();
        for (what, s) in [("parameter name", &name), ("parameter value", &value)] {
            assert!(
                !s.is_empty() && !s.contains([':', ',', '=']),
                "invalid {what} {s:?}: must be non-empty and free of ':', ',', '='"
            );
        }
        self.params.map.insert(name, value);
        self
    }

    /// The registry key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The parameters.
    pub fn params(&self) -> &SpecParams {
        &self.params
    }

    /// A coarse relative cost estimate of simulating one scenario under
    /// this spec — a **scheduling hint only** (higher = more expensive),
    /// used by `Campaign` to dispatch the expensive cells first so a
    /// straggler never serializes the tail of a parallel run. Never
    /// affects any simulation result. The weights mirror measured
    /// laptop-sweep ratios: the search-driven `DynMCB8*` family costs
    /// 10–70× the list-based baselines, with the stretch variant the
    /// single most expensive and the event-driven repacker next.
    pub fn cost_hint(&self) -> u32 {
        match self.key.as_str() {
            // Sharding reduces the superlinear inner work but adds
            // coordination; bill it as the inner plus a small overhead.
            "sharded" => self
                .params
                .get("inner")
                .and_then(|i| i.parse::<SchedulerSpec>().ok())
                .map_or(40, |i| i.cost_hint().saturating_add(5)),
            "dynmcb8-stretch-per" => 70,
            "dynmcb8" => 50,
            k if k.starts_with("dynmcb8") => 35,
            "greedy-pmtn" | "greedy-pmtn-migr" => 10,
            "greedy" => 6,
            "easy" | "conservative-bf" => 2,
            "fcfs" => 1,
            // Unknown (user-registered) specs: assume mid-weight so they
            // are neither serialized last nor allowed to straggle.
            _ => 20,
        }
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The sharded family renders in its own grammar
        // (`sharded:<inner>:shards=N`) because the inner spec may
        // itself contain the reserved `:`/`=`/`,` characters.
        if self.key == "sharded" {
            if let (Some(inner), Some(shards)) =
                (self.params.get("inner"), self.params.get("shards"))
            {
                return write!(f, "sharded:{inner}:shards={shards}");
            }
        }
        f.write_str(&self.key)?;
        for (i, (name, value)) in self.params.map.iter().enumerate() {
            f.write_str(if i == 0 { ":" } else { "," })?;
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

impl FromStr for SchedulerSpec {
    type Err = SpecError;

    /// Parse against the [built-in registry](SchedulerRegistry::builtin).
    /// For user-extended registries use [`SchedulerRegistry::parse`].
    fn from_str(s: &str) -> Result<Self, SpecError> {
        SchedulerRegistry::builtin().parse(s)
    }
}

fn normalize_key(key: &str) -> String {
    key.trim().to_ascii_lowercase()
}

/// Syntactic split of `key[:params]` without registry validation.
fn split_spec(s: &str) -> Result<(String, Vec<(String, String)>), SpecError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(SpecError::Empty);
    }
    let (key_part, param_part) = match s.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (s, None),
    };
    let key = normalize_key(key_part);
    if key.is_empty() {
        return Err(SpecError::Empty);
    }
    let mut params = Vec::new();
    if let Some(p) = param_part {
        for frag in p.split(',') {
            let frag = frag.trim();
            let (name, value) = frag.split_once('=').ok_or_else(|| SpecError::Syntax {
                fragment: frag.to_string(),
                detail: "expected name=value".into(),
            })?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name.is_empty() || value.is_empty() {
                return Err(SpecError::Syntax {
                    fragment: frag.to_string(),
                    detail: "empty parameter name or value".into(),
                });
            }
            params.push((name, value));
        }
    }
    Ok((key, params))
}

type BuildFn = dyn Fn(&SpecParams) -> Result<Box<dyn Scheduler>, SpecError> + Send + Sync;

/// One registered scheduler family: a key, a summary line, the
/// parameter names it accepts, and the factory closure.
#[derive(Clone)]
pub struct SchedulerFactory {
    key: String,
    summary: String,
    params: Vec<String>,
    build: Arc<BuildFn>,
}

impl SchedulerFactory {
    /// Create a factory. `params` lists every parameter name the build
    /// closure reads (lowercase); anything else in a spec is rejected
    /// before the closure runs.
    pub fn new(
        key: &str,
        summary: &str,
        params: &[&str],
        build: impl Fn(&SpecParams) -> Result<Box<dyn Scheduler>, SpecError> + Send + Sync + 'static,
    ) -> Self {
        SchedulerFactory {
            key: normalize_key(key),
            summary: summary.to_string(),
            params: params.iter().map(|p| p.to_ascii_lowercase()).collect(),
            build: Arc::new(build),
        }
    }

    /// The registry key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// One-line description for `--help`-style listings.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Accepted parameter names.
    pub fn param_names(&self) -> &[String] {
        &self.params
    }
}

impl fmt::Debug for SchedulerFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedulerFactory")
            .field("key", &self.key)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// String-keyed scheduler factories: the one way to name and build a
/// scheduler.
#[derive(Debug, Clone, Default)]
pub struct SchedulerRegistry {
    factories: BTreeMap<String, SchedulerFactory>,
}

impl SchedulerRegistry {
    /// An empty registry (no keys).
    pub fn empty() -> Self {
        SchedulerRegistry::default()
    }

    /// The built-in registry: the paper's nine algorithms plus the
    /// repository's extensions (`conservative-bf`, `dynmcb8-drf`,
    /// `dynmcb8-drf-per`, `sharded`). Its keys are the only way to build
    /// the batch driver, the greedy driver and the DYNMCB8 repacker.
    /// Construction is cheap; call it on demand.
    pub fn builtin() -> Self {
        let mut reg = SchedulerRegistry::empty();
        // The batch baselines: one FIFO queue, a backfilling policy.
        reg.register_fn("fcfs", "First-Come-First-Serve batch baseline", &[], |_| {
            Ok(Batch::<Never>::boxed())
        });
        reg.register_fn(
            "easy",
            "EASY backfilling with perfect estimates (batch baseline)",
            &[],
            |_| Ok(Batch::<Head>::boxed()),
        );
        reg.register_fn(
            "conservative-bf",
            "Conservative backfilling with perfect estimates (extension)",
            &[],
            |_| Ok(Batch::<All>::boxed()),
        );
        // The greedy family: one driver, two switches (pmtn, migr).
        reg.register_fn(
            "greedy",
            "GREEDY: fractional CPU, backoff postponing",
            &[],
            |_| Ok(Box::new(Greedy::new(false, false, 2.0))),
        );
        reg.register_fn(
            "greedy-pmtn",
            "GREEDY-PMTN: greedy with priority-based pausing (exponent: priority denominator power, default 2)",
            &["exponent"],
            |p| {
                let e = p.positive_f64_or("exponent", 2.0)?;
                Ok(Box::new(Greedy::new(true, false, e)))
            },
        );
        reg.register_fn(
            "greedy-pmtn-migr",
            "GREEDY-PMTN-MIGR: greedy with pausing and same-event re-placement",
            &[],
            |_| Ok(Box::new(Greedy::new(true, true, 2.0))),
        );
        // The DYNMCB8 family: one repacker, a trigger × an objective.
        reg.register_fn(
            "dynmcb8",
            "DYNMCB8: MCB8 repack at every event (packer: mcb8|first-fit|best-fit)",
            &["packer"],
            |p| {
                let yld = MaxMinYield::new(parse_packer(p, "dynmcb8")?);
                Ok(Repacker::boxed(Trigger::Event, yld))
            },
        );
        reg.register_fn(
            "dynmcb8-per",
            "DYNMCB8-PER: periodic MCB8 repack (t: period seconds, default 600)",
            &["t", "packer"],
            |p| {
                let t = period(p)?;
                let yld = MaxMinYield::new(parse_packer(p, "dynmcb8-per")?);
                Ok(Repacker::boxed(Trigger::Period(t), yld))
            },
        );
        reg.register_fn(
            "dynmcb8-asap-per",
            "DYNMCB8-ASAP-PER: periodic repack plus greedy admission (t: period seconds, default 600)",
            &["t", "packer"],
            |p| {
                let t = period(p)?;
                let yld = MaxMinYield::new(parse_packer(p, "dynmcb8-asap-per")?);
                Ok(Repacker::boxed(Trigger::AsapPer(t), yld))
            },
        );
        reg.register_fn(
            "dynmcb8-stretch-per",
            "DYNMCB8-STRETCH-PER: periodic repack minimizing estimated stretch (t: period seconds, default 600)",
            &["t"],
            |p| {
                let t = period(p)?;
                Ok(Repacker::boxed(Trigger::Period(t), MinMaxStretch::new(t)))
            },
        );
        reg.register_fn(
            "dynmcb8-drf",
            "DYNMCB8-DRF: event-driven repack maximizing the minimum dominant share (DRF, extension)",
            &[],
            |_| Ok(Repacker::boxed(Trigger::Event, DominantShare::default())),
        );
        reg.register_fn(
            "dynmcb8-drf-per",
            "DYNMCB8-DRF-PER: periodic dominant-share repack (t: period seconds, default 600)",
            &["t"],
            |p| {
                let t = period(p)?;
                Ok(Repacker::boxed(
                    Trigger::Period(t),
                    DominantShare::default(),
                ))
            },
        );
        reg.register_fn(
            "sharded",
            "Sharded coordinator: sharded:<inner-spec>:shards=N partitions the cluster and runs one inner instance per shard (defaults: dynmcb8-per, 2 shards)",
            &["inner", "shards"],
            // `build` resolves sharded specs against the calling
            // registry before consulting factories; this fallback (hit
            // only when the factory is invoked directly) resolves the
            // inner spec against the built-ins.
            |p| {
                let mut spec = SchedulerSpec::new("sharded");
                if let Some(v) = p.get("inner") {
                    spec.params.map.insert("inner".into(), v.to_string());
                }
                if let Some(v) = p.get("shards") {
                    spec.params.map.insert("shards".into(), v.to_string());
                }
                SchedulerRegistry::builtin().build_sharded(&spec)
            },
        );
        reg
    }

    /// Register (or replace) a factory. Returns `&mut self` so
    /// registrations chain.
    pub fn register(&mut self, factory: SchedulerFactory) -> &mut Self {
        self.factories.insert(factory.key.clone(), factory);
        self
    }

    /// Shorthand for [`register`](Self::register) with an inline closure.
    pub fn register_fn(
        &mut self,
        key: &str,
        summary: &str,
        params: &[&str],
        build: impl Fn(&SpecParams) -> Result<Box<dyn Scheduler>, SpecError> + Send + Sync + 'static,
    ) -> &mut Self {
        self.register(SchedulerFactory::new(key, summary, params, build))
    }

    /// All registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// The factory registered under `key`, if any.
    pub fn factory(&self, key: &str) -> Option<&SchedulerFactory> {
        self.factories.get(&normalize_key(key))
    }

    /// Whether `key` is registered.
    pub fn contains(&self, key: &str) -> bool {
        self.factory(key).is_some()
    }

    /// Parse a spec string against this registry: resolve the key,
    /// validate every parameter name, and return the canonical spec.
    pub fn parse(&self, s: &str) -> Result<SchedulerSpec, SpecError> {
        // `sharded:<inner>:shards=N` has its own grammar: the inner
        // spec may itself contain `:`/`=`/`,`, so it cannot go through
        // the ordinary name=value parameter parser.
        if let Some(rest) = s
            .trim()
            .split_once(':')
            .and_then(|(head, rest)| (normalize_key(head) == "sharded").then_some(rest))
        {
            return self.parse_sharded(s, rest);
        }
        let (key, pairs) = split_spec(s)?;
        let factory = self
            .factories
            .get(&key)
            .ok_or_else(|| SpecError::UnknownKey {
                key: key.clone(),
                known: self.keys(),
            })?;
        let mut spec = SchedulerSpec::new(&key);
        for (name, value) in pairs {
            if !factory.params.contains(&name) {
                return Err(SpecError::UnknownParam {
                    key: key.clone(),
                    param: name,
                    allowed: factory.params.clone(),
                });
            }
            spec = spec.with(&name, value);
        }
        Ok(spec)
    }

    /// Parse the tail of `sharded:<inner-spec>:shards=N` (`full` is the
    /// whole spec string, for error messages).
    fn parse_sharded(&self, full: &str, rest: &str) -> Result<SchedulerSpec, SpecError> {
        // `shards` is case-insensitive like every parameter name; ASCII
        // lowercasing keeps byte offsets, so the match indexes `rest`.
        let at = rest
            .to_ascii_lowercase()
            .rfind(":shards=")
            .ok_or_else(|| SpecError::Syntax {
                fragment: full.trim().to_string(),
                detail: "expected sharded:<inner-spec>:shards=N".into(),
            })?;
        let (inner_str, shards_str) = (&rest[..at], &rest[at + ":shards=".len()..]);
        let shards: u32 = shards_str
            .trim()
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| SpecError::InvalidParam {
                key: "sharded".into(),
                param: "shards".into(),
                value: shards_str.trim().to_string(),
                expected: "an integer >= 1".into(),
            })?;
        let inner = self.parse(inner_str)?;
        if inner.key() == "sharded" {
            return Err(SpecError::Syntax {
                fragment: full.trim().to_string(),
                detail: "nested sharded specs are not supported".into(),
            });
        }
        let mut spec = SchedulerSpec::new("sharded");
        spec.params.map.insert("inner".into(), inner.to_string());
        spec.params.map.insert("shards".into(), shards.to_string());
        Ok(spec)
    }

    /// Build the sharded coordinator for a parsed `sharded` spec,
    /// resolving the inner spec against **this** registry (so
    /// user-registered inner keys work). `shards=1` returns the bare
    /// inner scheduler — single-shard operation is byte-identical to
    /// the unsharded algorithm by construction, not by testing.
    fn build_sharded(&self, spec: &SchedulerSpec) -> Result<Box<dyn Scheduler>, SpecError> {
        let inner = spec.params.get("inner").unwrap_or("dynmcb8-per");
        let shards: u32 = spec
            .params
            .get("shards")
            .unwrap_or("2")
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| SpecError::InvalidParam {
                key: "sharded".into(),
                param: "shards".into(),
                value: spec.params.get("shards").unwrap_or("").to_string(),
                expected: "an integer >= 1".into(),
            })?;
        if shards == 1 {
            return self.build_str(inner);
        }
        let inners = (0..shards)
            .map(|_| self.build_str(inner))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(crate::sharded::Sharded::new(inners)))
    }

    /// Build a scheduler from a parsed spec.
    pub fn build(&self, spec: &SchedulerSpec) -> Result<Box<dyn Scheduler>, SpecError> {
        if spec.key == "sharded" {
            return self.build_sharded(spec);
        }
        let factory = self
            .factories
            .get(&spec.key)
            .ok_or_else(|| SpecError::UnknownKey {
                key: spec.key.clone(),
                known: self.keys(),
            })?;
        for name in spec.params.names() {
            if !factory.params.iter().any(|p| p == name) {
                return Err(SpecError::UnknownParam {
                    key: spec.key.clone(),
                    param: name.to_string(),
                    allowed: factory.params.clone(),
                });
            }
        }
        (factory.build)(&spec.params)
    }

    /// Parse and build in one step.
    pub fn build_str(&self, s: &str) -> Result<Box<dyn Scheduler>, SpecError> {
        self.build(&self.parse(s)?)
    }
}

/// The `t` parameter of the periodic triggers.
fn period(p: &SpecParams) -> Result<f64, SpecError> {
    p.positive_f64_or("t", DEFAULT_PERIOD_SECS)
}

fn parse_packer(p: &SpecParams, key: &str) -> Result<PackerChoice, SpecError> {
    match p.get("packer") {
        None | Some("mcb8") => Ok(PackerChoice::Mcb8),
        Some("first-fit") | Some("ff") | Some("ffd") => Ok(PackerChoice::FirstFit),
        Some("best-fit") | Some("bf") | Some("bfd") => Ok(PackerChoice::BestFit),
        Some(other) => Err(SpecError::InvalidParam {
            key: key.to_string(),
            param: "packer".into(),
            value: other.to_string(),
            expected: "mcb8 | first-fit | best-fit".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_key_and_params() {
        let spec: SchedulerSpec = "dynmcb8-per:T=300".parse().unwrap();
        assert_eq!(spec.key(), "dynmcb8-per");
        assert_eq!(spec.params().get("t"), Some("300"));
        assert_eq!(spec.to_string(), "dynmcb8-per:t=300");
        let bare: SchedulerSpec = "fcfs".parse().unwrap();
        assert!(bare.params().is_empty());
        assert_eq!(bare.to_string(), "fcfs");
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "fcfs",
            "greedy-pmtn:exponent=1.5",
            "dynmcb8-asap-per:packer=first-fit,t=60",
            "dynmcb8-per:packer=bfd,t=300",
        ] {
            let spec: SchedulerSpec = s.parse().unwrap();
            let again: SchedulerSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again, "{s}");
        }
    }

    #[test]
    fn unknown_key_lists_known_keys_and_suggests() {
        let err = "dynmbc8".parse::<SchedulerSpec>().unwrap_err();
        match &err {
            SpecError::UnknownKey { known, .. } => {
                assert!(known.iter().any(|k| k == "dynmcb8"));
                assert!(known.iter().any(|k| k == "fcfs"));
            }
            other => panic!("wrong error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("known:"), "{msg}");
        assert!(msg.contains("did you mean \"dynmcb8\""), "{msg}");
    }

    #[test]
    fn unknown_and_invalid_params_are_rejected() {
        assert!(matches!(
            "fcfs:t=600".parse::<SchedulerSpec>(),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            "dynmcb8-per:t=banana"
                .parse::<SchedulerSpec>()
                .map(|s| SchedulerRegistry::builtin().build(&s)),
            Ok(Err(SpecError::InvalidParam { .. }))
        ));
        assert!(matches!(
            "dynmcb8-per:t=-5"
                .parse::<SchedulerSpec>()
                .map(|s| SchedulerRegistry::builtin().build(&s)),
            Ok(Err(SpecError::InvalidParam { .. }))
        ));
        assert!(matches!(
            "dynmcb8-per:oops".parse::<SchedulerSpec>(),
            Err(SpecError::Syntax { .. })
        ));
        assert!(matches!("".parse::<SchedulerSpec>(), Err(SpecError::Empty)));
    }

    #[test]
    fn legacy_suffix_and_paper_names_parse() {
        // The period-suffix form, the paper-table names and underscore
        // spellings are not specs: only the registered key is.
        for s in [
            "dynmcb8-per-600",
            "DynMCB8-per 600",
            "DynMCB8-asap-per 600",
            "dynmcb8_per",
            "fcfs-600",
        ] {
            assert!(
                matches!(
                    s.parse::<SchedulerSpec>(),
                    Err(SpecError::UnknownKey { .. })
                ),
                "{s}"
            );
        }
        let spec: SchedulerSpec = "DynMCB8-PER:T=300".parse().unwrap();
        assert_eq!(spec.to_string(), "dynmcb8-per:t=300");
    }

    #[test]
    fn builds_respect_params() {
        let reg = SchedulerRegistry::builtin();
        assert_eq!(
            reg.build_str("dynmcb8-per:T=60").unwrap().name(),
            "DynMCB8-per 60"
        );
        assert_eq!(reg.build_str("greedy-pmtn").unwrap().name(), "Greedy-pmtn");
        assert!(reg.build_str("dynmcb8:packer=best-fit").is_ok());
        assert!(reg.build_str("dynmcb8:packer=quantum").is_err());
    }

    #[test]
    fn user_registration_extends_and_replaces() {
        let mut reg = SchedulerRegistry::builtin();
        assert!(!reg.contains("my-sched"));
        reg.register_fn("my-sched", "custom", &["t"], |p| {
            let t = p.positive_f64_or("t", 120.0)?;
            SchedulerRegistry::builtin().build(&SchedulerSpec::new("dynmcb8-per").with("t", t))
        });
        assert!(reg.contains("my-sched"));
        assert_eq!(
            reg.build_str("my-sched:t=42").unwrap().name(),
            "DynMCB8-per 42"
        );
        // A numeric suffix is not a period, for user keys either.
        assert!(matches!(
            reg.parse("my-sched-300"),
            Err(SpecError::UnknownKey { .. })
        ));
    }

    #[test]
    fn sharded_specs_parse_build_and_round_trip() {
        let reg = SchedulerRegistry::builtin();
        let spec = reg.parse("sharded:dynmcb8-per:t=300:shards=4").unwrap();
        assert_eq!(spec.key(), "sharded");
        assert_eq!(spec.params().get("inner"), Some("dynmcb8-per:t=300"));
        assert_eq!(spec.params().get("shards"), Some("4"));
        assert_eq!(spec.to_string(), "sharded:dynmcb8-per:t=300:shards=4");
        let again = reg.parse(&spec.to_string()).unwrap();
        assert_eq!(spec, again);
        // Inner normalization applies, and `shards` is case-insensitive
        // like every other parameter name.
        let spec = reg.parse("sharded:DynMCB8-PER:T=600:shards=2").unwrap();
        assert_eq!(spec.to_string(), "sharded:dynmcb8-per:t=600:shards=2");
        let spec = reg.parse("sharded:dynmcb8:SHARDS=2").unwrap();
        assert_eq!(spec.to_string(), "sharded:dynmcb8:shards=2");
        // shards=1 builds the *bare* inner (passthrough by construction).
        let one = reg.build_str("sharded:greedy:shards=1").unwrap();
        assert_eq!(one.name(), "Greedy");
        let four = reg.build_str("sharded:greedy:shards=4").unwrap();
        assert_eq!(four.name(), "Sharded[4] Greedy");
    }

    #[test]
    fn sharded_spec_errors_are_typed() {
        let reg = SchedulerRegistry::builtin();
        // Missing shards suffix.
        assert!(matches!(
            reg.parse("sharded:greedy"),
            Err(SpecError::Syntax { .. })
        ));
        // Bad shard counts.
        for s in ["sharded:greedy:shards=0", "sharded:greedy:shards=two"] {
            assert!(matches!(
                reg.parse(s),
                Err(SpecError::InvalidParam { param, .. }) if param == "shards"
            ));
        }
        // Unknown inner key propagates the inner error.
        assert!(matches!(
            reg.parse("sharded:nope:shards=2"),
            Err(SpecError::UnknownKey { .. })
        ));
        // Nesting is rejected.
        assert!(matches!(
            reg.parse("sharded:sharded:greedy:shards=2:shards=2"),
            Err(SpecError::Syntax { .. })
        ));
        // The sharded period follows the inner scheduler.
        let s = reg.build_str("sharded:dynmcb8-per:t=120:shards=2").unwrap();
        assert_eq!(s.period(), Some(120.0));
        // cost_hint bills inner + coordination.
        let spec = reg
            .parse("sharded:dynmcb8-stretch-per:shards=2")
            .unwrap_or_else(|_| {
                reg.parse("sharded:dynmcb8-stretch-per:t=600:shards=2")
                    .unwrap()
            });
        assert_eq!(spec.cost_hint(), 75);
    }

    #[test]
    fn edit_distance_sanity() {
        assert_eq!(edit_distance("fcfs", "fcfs"), 0);
        assert_eq!(edit_distance("fcfs", "fcf"), 1);
        assert_eq!(edit_distance("greedy", "greedy-pmtn"), 5);
    }
}
