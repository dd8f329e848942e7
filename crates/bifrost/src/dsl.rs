//! The strategy DSL: experimentation-as-code (Section 1.2.3).
//!
//! "Formalizing experiments in a domain-specific language […] fosters
//! transparency, and allows experiments and their phases to be shared,
//! reused, and versioned." The language is deliberately small:
//!
//! ```text
//! # comments run to end of line
//! strategy "recommendation-rollout" {
//!   service "recommendation"
//!   baseline "1.0.0"
//!   candidate "1.1.0"            # variant A in A/B phases
//!   variant_b "1.1.0-alt"        # optional variant B
//!
//!   phase "canary" canary 5% for 10m {
//!     check error_rate < 0.05 over 2m every 30s min_samples 50
//!     check response_time vs_baseline < 1.25 over 2m every 30s
//!     on success goto "rollout"
//!     on failure rollback
//!     on inconclusive retry
//!   }
//!   phase "rollout" gradual_rollout from 10% to 100% step 30% every 5m for 30m {
//!     check error_rate < 0.05 over 2m every 30s
//!     on success complete
//!     on failure rollback
//!   }
//! }
//! ```
//!
//! [`parse`] turns source into a validated [`Strategy`];
//! [`to_source`] pretty-prints a strategy back into canonical DSL
//! (round-tripping is covered by tests).

use crate::error::BifrostError;
use crate::model::{
    Action, ChaosKind, ChaosSpec, ChaosTarget, Check, CheckScope, Comparator, Phase, PhaseKind,
    Strategy,
};
use cex_core::metrics::MetricKind;
use cex_core::simtime::SimDuration;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Number(f64),
    Percent(f64),
    Duration(SimDuration),
    LBrace,
    RBrace,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, PartialEq)]
struct Spanned {
    tok: Tok,
    line: usize,
    column: usize,
}

fn describe_tok(tok: &Tok) -> String {
    match tok {
        Tok::Ident(word) => format!("`{word}`"),
        Tok::Str(s) => format!("\"{s}\""),
        Tok::Number(v) => format!("number `{v}`"),
        Tok::Percent(v) => format!("percentage `{v}%`"),
        Tok::Duration(d) => format!("duration `{d}`"),
        Tok::LBrace => "`{`".to_string(),
        Tok::RBrace => "`}`".to_string(),
        Tok::Lt => "`<`".to_string(),
        Tok::Le => "`<=`".to_string(),
        Tok::Gt => "`>`".to_string(),
        Tok::Ge => "`>=`".to_string(),
    }
}

/// Durations stay below 9·10^15 ms (about 285,000 years): the engine adds
/// a few of them to the clock with plain `+`, which cannot then overflow,
/// and `cex_core::json` writes every integer below this bound exactly.
const DURATION_LIMIT_MS: u64 = 9_000_000_000_000_000;

/// `digits`, a decimal such as `4.1`, times `unit_ms`, in whole
/// milliseconds. Computed on the digits, so no float rounds `4.1m` down to
/// 245,999 ms; `Err` names why when the product is not a whole number of
/// milliseconds or reaches [`DURATION_LIMIT_MS`].
fn duration_ms(digits: &str, unit_ms: u64) -> Result<u64, &'static str> {
    const TOO_LONG: &str = "is 9e15 ms (about 285,000 years) or longer";
    const SUB_MS: &str = "is not a whole number of milliseconds";
    let (whole, fraction) = digits.split_once('.').unwrap_or((digits, ""));
    let whole = whole.parse::<u64>().ok().and_then(|w| w.checked_mul(unit_ms)).ok_or(TOO_LONG)?;
    let fraction = fraction.trim_end_matches('0');
    if fraction.is_empty() {
        return Some(whole).filter(|ms| *ms < DURATION_LIMIT_MS).ok_or(TOO_LONG);
    }
    // `k` decimals, the last not 0, times a unit are whole milliseconds only
    // if 10^k divides the product, and no unit holds more than 2^7 or 5^5
    // (an hour is 2^7 * 3^2 * 5^5 ms): past seven decimals none is; up to
    // seven, the product fits.
    if fraction.len() > 7 {
        return Err(SUB_MS);
    }
    let parts = fraction.parse::<u64>().map_err(|_| SUB_MS)? * unit_ms;
    let per_ms = 10u64.pow(fraction.len() as u32);
    if !parts.is_multiple_of(per_ms) {
        return Err(SUB_MS);
    }
    whole.checked_add(parts / per_ms).filter(|ms| *ms < DURATION_LIMIT_MS).ok_or(TOO_LONG)
}

fn lex(source: &str) -> Result<Vec<Spanned>, BifrostError> {
    let mut tokens = Vec::new();
    let mut chars = source.chars().peekable();
    let (mut line, mut column) = (1usize, 1usize);

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                column = 1;
            } else if c.is_some() {
                column += 1;
            }
            c
        }};
    }

    while let Some(&c) = chars.peek() {
        let (tok_line, tok_col) = (line, column);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '{' => {
                bump!();
                tokens.push(Spanned { tok: Tok::LBrace, line: tok_line, column: tok_col });
            }
            '}' => {
                bump!();
                tokens.push(Spanned { tok: Tok::RBrace, line: tok_line, column: tok_col });
            }
            '<' => {
                bump!();
                let tok = if chars.peek() == Some(&'=') {
                    bump!();
                    Tok::Le
                } else {
                    Tok::Lt
                };
                tokens.push(Spanned { tok, line: tok_line, column: tok_col });
            }
            '>' => {
                bump!();
                let tok = if chars.peek() == Some(&'=') {
                    bump!();
                    Tok::Ge
                } else {
                    Tok::Gt
                };
                tokens.push(Spanned { tok, line: tok_line, column: tok_col });
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(BifrostError::parse(
                                tok_line,
                                tok_col,
                                "unterminated string",
                            ))
                        }
                        Some(c) => s.push(c),
                    }
                }
                tokens.push(Spanned { tok: Tok::Str(s), line: tok_line, column: tok_col });
            }
            c if c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        num.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                let value: f64 = num.parse().map_err(|_| {
                    BifrostError::parse(tok_line, tok_col, format!("bad number {num}"))
                })?;
                // Suffix: %, ms, s, m, h — or a bare number.
                let unit = match chars.peek() {
                    Some('m') => {
                        bump!();
                        if chars.peek() == Some(&'s') {
                            bump!();
                            Some(("ms", 1))
                        } else {
                            Some(("m", 60_000))
                        }
                    }
                    Some('s') => {
                        bump!();
                        Some(("s", 1_000))
                    }
                    Some('h') => {
                        bump!();
                        Some(("h", 3_600_000))
                    }
                    _ => None,
                };
                let tok = match unit {
                    Some((suffix, unit_ms)) => {
                        let ms = duration_ms(&num, unit_ms).map_err(|why| {
                            let message = format!("duration {num}{suffix} {why}");
                            BifrostError::parse(tok_line, tok_col, message)
                        })?;
                        Tok::Duration(SimDuration::from_millis(ms))
                    }
                    None if chars.peek() == Some(&'%') => {
                        bump!();
                        Tok::Percent(value)
                    }
                    None => Tok::Number(value),
                };
                tokens.push(Spanned { tok, line: tok_line, column: tok_col });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        ident.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                tokens.push(Spanned { tok: Tok::Ident(ident), line: tok_line, column: tok_col });
            }
            other => {
                return Err(BifrostError::parse(
                    tok_line,
                    tok_col,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn here(&self) -> (usize, usize) {
        self.peek()
            .map(|s| (s.line, s.column))
            .or_else(|| self.tokens.last().map(|s| (s.line, s.column)))
            .unwrap_or((1, 1))
    }

    fn err(&self, message: impl Into<String>) -> BifrostError {
        let (line, column) = self.here();
        BifrostError::parse(line, column, message)
    }

    /// Renders the token at the error position so parse errors can name
    /// the offending input (`, got \`5\``) instead of just what was
    /// expected.
    fn offending(&self) -> String {
        match self.peek() {
            Some(Spanned { tok, .. }) => format!(", got {}", describe_tok(tok)),
            None => ", got end of input".to_string(),
        }
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::Ident(word), .. }) if word == kw => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected keyword `{kw}`")))
            }
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Spanned { tok: Tok::Ident(word), .. }) if word == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::Str(s), .. }) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected quoted {what}")))
            }
        }
    }

    fn expect_percent(&mut self) -> Result<f64, BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::Percent(v), .. }) => Ok(v),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a percentage like `5%`"))
            }
        }
    }

    fn expect_duration(&mut self) -> Result<SimDuration, BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::Duration(d), .. }) => Ok(d),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!(
                    "expected a duration like `30s`, `10m`, `2h`{}",
                    self.offending()
                )))
            }
        }
    }

    fn expect_number(&mut self) -> Result<f64, BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::Number(v), .. }) => Ok(v),
            Some(Spanned { tok: Tok::Percent(v), .. }) => Ok(v / 100.0),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a number"))
            }
        }
    }

    /// A whole count after `keyword`: a bare number with no fraction,
    /// below 2^64. Numbers lex as `f64`, so a fraction, a percentage or a
    /// count too long for `u64` would otherwise truncate or saturate
    /// without a word. The error sits on the count.
    fn expect_count(&mut self, keyword: &str) -> Result<u64, BifrostError> {
        const PAST_U64: f64 = 18_446_744_073_709_551_616.0; // 2^64
        match self.peek() {
            Some(Spanned { tok: Tok::Number(v), .. }) if v.fract() == 0.0 && *v < PAST_U64 => {
                let count = *v as u64;
                self.pos += 1;
                Ok(count)
            }
            _ => {
                Err(self
                    .err(format!("`{keyword}` takes a whole count below 2^64{}", self.offending())))
            }
        }
    }

    fn expect_lbrace(&mut self) -> Result<(), BifrostError> {
        match self.next() {
            Some(Spanned { tok: Tok::LBrace, .. }) => Ok(()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected `{`"))
            }
        }
    }

    fn runtime_settings(&mut self, settings: &mut RuntimeSettings) -> Result<(), BifrostError> {
        self.expect_keyword("runtime")?;
        self.expect_lbrace()?;
        loop {
            if matches!(self.peek(), Some(Spanned { tok: Tok::RBrace, .. })) {
                self.pos += 1;
                break;
            }
            if self.eat_keyword("report_every") {
                settings.report_every = self.expect_count("report_every")?;
            } else if self.eat_keyword("profile") {
                settings.profile = if self.eat_keyword("on") {
                    true
                } else if self.eat_keyword("off") {
                    false
                } else {
                    return Err(self.err(format!(
                        "expected `on` or `off` after `profile`{}",
                        self.offending()
                    )));
                };
            } else {
                return Err(self.err("expected `report_every`, `profile`, or `}`"));
            }
        }
        Ok(())
    }

    fn strategy(&mut self) -> Result<Strategy, BifrostError> {
        self.expect_keyword("strategy")?;
        let name = self.expect_string("strategy name")?;
        self.expect_lbrace()?;
        let mut strategy = Strategy {
            name,
            service: String::new(),
            baseline: String::new(),
            candidate: String::new(),
            variant_b: None,
            phases: Vec::new(),
        };
        loop {
            if matches!(self.peek(), Some(Spanned { tok: Tok::RBrace, .. })) {
                self.pos += 1;
                break;
            }
            if self.eat_keyword("service") {
                strategy.service = self.expect_string("service name")?;
            } else if self.eat_keyword("baseline") {
                strategy.baseline = self.expect_string("baseline version")?;
            } else if self.eat_keyword("candidate") {
                strategy.candidate = self.expect_string("candidate version")?;
            } else if self.eat_keyword("variant_b") {
                strategy.variant_b = Some(self.expect_string("variant B version")?);
            } else if self.eat_keyword("phase") {
                strategy.phases.push(self.phase()?);
            } else {
                return Err(self.err(
                    "expected `service`, `baseline`, `candidate`, `variant_b`, `phase`, or `}`",
                ));
            }
        }
        strategy.validate()?;
        Ok(strategy)
    }

    fn phase(&mut self) -> Result<Phase, BifrostError> {
        let name = self.expect_string("phase name")?;
        let kind = self.phase_kind()?;
        self.expect_keyword("for")?;
        let duration = self.expect_duration()?;
        self.expect_lbrace()?;

        let mut checks = Vec::new();
        let mut chaos = None;
        let mut on_success = None;
        let mut on_failure = None;
        let mut on_inconclusive = None;
        loop {
            if matches!(self.peek(), Some(Spanned { tok: Tok::RBrace, .. })) {
                self.pos += 1;
                break;
            }
            if self.eat_keyword("check") {
                checks.push(self.check()?);
            } else if self.eat_keyword("inject") {
                if chaos.is_some() {
                    return Err(self.err(format!("phase {name}: more than one `inject`")));
                }
                chaos = Some(self.inject()?);
            } else if self.eat_keyword("on") {
                let (which, action) = self.handler()?;
                match which.as_str() {
                    "success" => on_success = Some(action),
                    "failure" => on_failure = Some(action),
                    "inconclusive" => on_inconclusive = Some(action),
                    other => {
                        return Err(self.err(format!(
                            "expected `success`, `failure` or `inconclusive`, got `{other}`"
                        )))
                    }
                }
            } else {
                return Err(self.err("expected `check`, `inject`, `on`, or `}`"));
            }
        }
        let on_success =
            on_success.ok_or_else(|| self.err(format!("phase {name}: missing `on success`")))?;
        let on_failure =
            on_failure.ok_or_else(|| self.err(format!("phase {name}: missing `on failure`")))?;
        Ok(Phase {
            name,
            kind,
            duration,
            checks,
            chaos,
            on_success,
            on_failure,
            on_inconclusive: on_inconclusive.unwrap_or(Action::Retry),
        })
    }

    fn inject(&mut self) -> Result<ChaosSpec, BifrostError> {
        // `zone_outage "<zone>"` is sugar for an outage striking every
        // version deployed in the zone — the correlated-fault injection.
        // It carries its target inline, so no `on` clause follows.
        if self.eat_keyword("zone_outage") {
            let zone = self.expect_string("zone label")?;
            self.expect_keyword("after")?;
            let start_after = self.expect_duration()?;
            self.expect_keyword("for")?;
            let duration = self.expect_duration()?;
            return Ok(ChaosSpec {
                kind: ChaosKind::Outage,
                target: ChaosTarget::Zone(zone),
                start_after,
                duration,
            });
        }
        let kind = if self.eat_keyword("outage") {
            ChaosKind::Outage
        } else if self.eat_keyword("latency_spike") {
            ChaosKind::LatencySpike { multiplier: self.expect_number()? }
        } else if self.eat_keyword("error_burst") {
            ChaosKind::ErrorBurst { extra_error_rate: self.expect_number()? }
        } else if self.eat_keyword("latency_storm") {
            ChaosKind::LatencyStorm { multiplier: self.expect_number()? }
        } else {
            return Err(self.err(format!(
                "expected `outage`, `latency_spike`, `error_burst`, `zone_outage`, \
                 or `latency_storm`{}",
                self.offending()
            )));
        };
        self.expect_keyword("on")?;
        let target = match self.next() {
            Some(Spanned { tok: Tok::Ident(word), .. }) if word == "candidate" => {
                ChaosTarget::Candidate
            }
            Some(Spanned { tok: Tok::Ident(word), .. }) if word == "baseline" => {
                ChaosTarget::Baseline
            }
            Some(Spanned { tok: Tok::Ident(word), .. }) if word == "zone" => {
                ChaosTarget::Zone(self.expect_string("zone label")?)
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err(format!(
                    "expected `candidate`, `baseline`, or `zone \"<label>\"`{}",
                    self.offending()
                )));
            }
        };
        self.expect_keyword("after")?;
        let start_after = self.expect_duration()?;
        self.expect_keyword("for")?;
        let duration = self.expect_duration()?;
        Ok(ChaosSpec { kind, target, start_after, duration })
    }

    fn phase_kind(&mut self) -> Result<PhaseKind, BifrostError> {
        if self.eat_keyword("canary") {
            Ok(PhaseKind::Canary { traffic_percent: self.expect_percent()? })
        } else if self.eat_keyword("dark_launch") {
            Ok(PhaseKind::DarkLaunch)
        } else if self.eat_keyword("ab_test") {
            Ok(PhaseKind::AbTest { split_percent: self.expect_percent()? })
        } else if self.eat_keyword("gradual_rollout") || self.eat_keyword("ramp") {
            // `ramp` is the adaptive-rollout spelling; `guarded` turns on
            // check-guarded ramping (advance only while the phase's
            // sequential checks see no harm).
            self.expect_keyword("from")?;
            let from_percent = self.expect_percent()?;
            self.expect_keyword("to")?;
            let to_percent = self.expect_percent()?;
            self.expect_keyword("step")?;
            let step_percent = self.expect_percent()?;
            self.expect_keyword("every")?;
            let step_duration = self.expect_duration()?;
            let guarded = self.eat_keyword("guarded");
            Ok(PhaseKind::GradualRollout {
                from_percent,
                to_percent,
                step_percent,
                step_duration,
                guarded,
            })
        } else {
            Err(self
                .err("expected `canary`, `dark_launch`, `ab_test`, `gradual_rollout`, or `ramp`"))
        }
    }

    fn check(&mut self) -> Result<Check, BifrostError> {
        let metric_name = match self.next() {
            Some(Spanned { tok: Tok::Ident(s), .. }) => s,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected a metric name"));
            }
        };
        let metric = MetricKind::from_name(&metric_name)
            .ok_or_else(|| self.err(format!("unknown metric `{metric_name}`")))?;
        let scope = if self.eat_keyword("vs_baseline") {
            CheckScope::CandidateVsBaseline
        } else if self.eat_keyword("significant_vs_baseline") {
            CheckScope::SignificantVsBaseline
        } else if self.eat_keyword("sequential_vs_baseline") {
            CheckScope::SequentialVsBaseline
        } else if self.eat_keyword("sequential") {
            // Long form: `sequential vs baseline`.
            if self.eat_keyword("vs") {
                self.expect_keyword("baseline")?;
            }
            CheckScope::SequentialVsBaseline
        } else if self.eat_keyword("baseline") {
            CheckScope::Baseline
        } else if self.eat_keyword("app") {
            CheckScope::App
        } else if self.eat_keyword("trace") {
            CheckScope::Trace
        } else {
            CheckScope::Candidate
        };
        let comparator = match self.next() {
            Some(Spanned { tok: Tok::Lt, .. }) => Comparator::Lt,
            Some(Spanned { tok: Tok::Le, .. }) => Comparator::Le,
            Some(Spanned { tok: Tok::Gt, .. }) => Comparator::Gt,
            Some(Spanned { tok: Tok::Ge, .. }) => Comparator::Ge,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected a comparator (`<`, `<=`, `>`, `>=`)"));
            }
        };
        if scope == CheckScope::SequentialVsBaseline {
            // `check <metric> sequential vs baseline <cmp> confidence <c>
            //  every <interval> [min_samples N] [tau T]` — no window: a
            // sequential test reads the cumulative evidence since phase
            // start.
            self.expect_keyword("confidence")?;
            let threshold = self.expect_number()?;
            self.expect_keyword("every")?;
            let interval = self.expect_duration()?;
            let min_samples = if self.eat_keyword("min_samples") {
                self.expect_count("min_samples")?
            } else {
                20
            };
            let tau = if self.eat_keyword("tau") { Some(self.expect_number()?) } else { None };
            return Ok(Check {
                metric,
                scope,
                comparator,
                threshold,
                window: SimDuration::ZERO,
                interval,
                min_samples,
                tau,
            });
        }
        let threshold = self.expect_number()?;
        self.expect_keyword("over")?;
        let window = self.expect_duration()?;
        self.expect_keyword("every")?;
        let interval = self.expect_duration()?;
        let min_samples =
            if self.eat_keyword("min_samples") { self.expect_count("min_samples")? } else { 20 };
        Ok(Check { metric, scope, comparator, threshold, window, interval, min_samples, tau: None })
    }

    fn handler(&mut self) -> Result<(String, Action), BifrostError> {
        let which = match self.next() {
            Some(Spanned { tok: Tok::Ident(s), .. }) => s,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected `success`, `failure` or `inconclusive`"));
            }
        };
        let action = if self.eat_keyword("goto") {
            Action::Goto(self.expect_string("phase name")?)
        } else if self.eat_keyword("complete") {
            Action::Complete
        } else if self.eat_keyword("rollback") {
            Action::Rollback
        } else if self.eat_keyword("retry") {
            Action::Retry
        } else {
            return Err(self.err("expected `goto`, `complete`, `rollback`, or `retry`"));
        };
        Ok((which, action))
    }
}

/// Parses one strategy from DSL source and validates it.
///
/// # Errors
///
/// Returns [`BifrostError::Parse`] with line/column on syntax errors and
/// [`BifrostError::InvalidStrategy`] on semantic ones.
pub fn parse(source: &str) -> Result<Strategy, BifrostError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let strategy = parser.strategy()?;
    if parser.peek().is_some() {
        return Err(parser.err("trailing input after strategy"));
    }
    Ok(strategy)
}

/// Parses a file containing any number of strategies — how a team
/// versions its whole experiment fleet in one place.
///
/// # Errors
///
/// Returns the first parse/validation error, or
/// [`BifrostError::InvalidStrategy`] when two strategies share a name.
pub fn parse_all(source: &str) -> Result<Vec<Strategy>, BifrostError> {
    parse_fleet(source).map(|(strategies, _)| strategies)
}

/// Runtime self-observability settings parsed from a top-level
/// `runtime { ... }` block — experimentation-as-code extends to how a
/// run observes itself, so the cadence of
/// [`crate::journal::JournalEvent::Runtime`] snapshots and the
/// wall-clock profiling switch are versioned alongside the strategies.
///
/// ```text
/// runtime {
///   report_every 5     # counter snapshot every 5 ticks (0 = off)
///   profile on         # wall-clock phase spans on|off
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeSettings {
    /// `report_every N`: emit a runtime journal event every N ticks;
    /// `0` (the default) disables the cadence.
    pub report_every: u64,
    /// `profile on|off`: whether wall-clock phase spans record (the
    /// sidecar profile; never journaled). Defaults to on.
    pub profile: bool,
}

impl Default for RuntimeSettings {
    fn default() -> Self {
        RuntimeSettings { report_every: 0, profile: true }
    }
}

impl RuntimeSettings {
    /// Applies these settings onto an engine configuration.
    pub fn apply(&self, config: &mut crate::engine::EngineConfig) {
        use cex_core::obs::ObsConfig;
        config.runtime_report_every = self.report_every;
        config.obs = if self.profile { ObsConfig::enabled() } else { ObsConfig::disabled() };
    }
}

/// Like [`parse_all`], additionally honoring top-level `runtime { ... }`
/// blocks interleaved with the strategies (later blocks override
/// earlier ones). Returns the strategies and the merged
/// [`RuntimeSettings`].
///
/// # Errors
///
/// Same failure modes as [`parse_all`].
pub fn parse_fleet(source: &str) -> Result<(Vec<Strategy>, RuntimeSettings), BifrostError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut strategies = Vec::new();
    let mut settings = RuntimeSettings::default();
    while parser.peek().is_some() {
        if matches!(parser.peek(), Some(Spanned { tok: Tok::Ident(w), .. }) if w == "runtime") {
            parser.runtime_settings(&mut settings)?;
            continue;
        }
        let strategy = parser.strategy()?;
        if strategies.iter().any(|s: &Strategy| s.name == strategy.name) {
            return Err(BifrostError::InvalidStrategy(format!(
                "duplicate strategy name {}",
                strategy.name
            )));
        }
        strategies.push(strategy);
    }
    Ok((strategies, settings))
}

/// Pretty-prints a strategy into canonical DSL source. `parse ∘ to_source`
/// is the identity for millisecond-precision strategies.
pub fn to_source(strategy: &Strategy) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "strategy \"{}\" {{", strategy.name);
    let _ = writeln!(out, "  service \"{}\"", strategy.service);
    let _ = writeln!(out, "  baseline \"{}\"", strategy.baseline);
    let _ = writeln!(out, "  candidate \"{}\"", strategy.candidate);
    if let Some(b) = &strategy.variant_b {
        let _ = writeln!(out, "  variant_b \"{b}\"");
    }
    for phase in &strategy.phases {
        let kind = match &phase.kind {
            PhaseKind::Canary { traffic_percent } => format!("canary {traffic_percent}%"),
            PhaseKind::DarkLaunch => "dark_launch".to_string(),
            PhaseKind::AbTest { split_percent } => format!("ab_test {split_percent}%"),
            PhaseKind::GradualRollout {
                from_percent,
                to_percent,
                step_percent,
                step_duration,
                guarded,
            } => {
                format!(
                    "gradual_rollout from {from_percent}% to {to_percent}% step {step_percent}% every {step_duration}{}",
                    if *guarded { " guarded" } else { "" }
                )
            }
        };
        let _ = writeln!(out, "  phase \"{}\" {kind} for {} {{", phase.name, phase.duration);
        for check in &phase.checks {
            if check.scope == CheckScope::SequentialVsBaseline {
                let tau = match check.tau {
                    Some(tau) => format!(" tau {tau}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "    check {} sequential vs baseline {} confidence {} every {} min_samples {}{tau}",
                    check.metric,
                    check.comparator.symbol(),
                    check.threshold,
                    check.interval,
                    check.min_samples
                );
                continue;
            }
            let scope = match check.scope {
                CheckScope::Candidate => "",
                CheckScope::Baseline => " baseline",
                CheckScope::CandidateVsBaseline => " vs_baseline",
                CheckScope::SignificantVsBaseline => " significant_vs_baseline",
                CheckScope::SequentialVsBaseline => unreachable!("handled above"),
                CheckScope::App => " app",
                CheckScope::Trace => " trace",
            };
            let _ = writeln!(
                out,
                "    check {}{} {} {} over {} every {} min_samples {}",
                check.metric,
                scope,
                check.comparator.symbol(),
                check.threshold,
                check.window,
                check.interval,
                check.min_samples
            );
        }
        if let Some(chaos) = &phase.chaos {
            let kind = match chaos.kind {
                ChaosKind::Outage => "outage".to_string(),
                ChaosKind::LatencySpike { multiplier } => format!("latency_spike {multiplier}"),
                ChaosKind::ErrorBurst { extra_error_rate } => {
                    format!("error_burst {extra_error_rate}")
                }
                ChaosKind::LatencyStorm { multiplier } => format!("latency_storm {multiplier}"),
            };
            match (&chaos.kind, &chaos.target) {
                (ChaosKind::Outage, ChaosTarget::Zone(zone)) => {
                    let _ = writeln!(
                        out,
                        "    inject zone_outage \"{zone}\" after {} for {}",
                        chaos.start_after, chaos.duration
                    );
                }
                (_, ChaosTarget::Zone(zone)) => {
                    let _ = writeln!(
                        out,
                        "    inject {kind} on zone \"{zone}\" after {} for {}",
                        chaos.start_after, chaos.duration
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "    inject {kind} on {} after {} for {}",
                        chaos.target.keyword(),
                        chaos.start_after,
                        chaos.duration
                    );
                }
            }
        }
        let _ = writeln!(out, "    on success {}", phase.on_success);
        let _ = writeln!(out, "    on failure {}", phase.on_failure);
        let _ = writeln!(out, "    on inconclusive {}", phase.on_inconclusive);
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# The AB Inc motivating example as a four-phase strategy.
strategy "rec-rollout" {
  service "recommendation"
  baseline "1.0.0"
  candidate "1.1.0"
  variant_b "1.1.0-alt"

  phase "canary" canary 5% for 10m {
    check error_rate < 0.05 over 2m every 30s min_samples 50
    check response_time vs_baseline < 1.25 over 2m every 30s
    on success goto "dark"
    on failure rollback
    on inconclusive retry
  }
  phase "dark" dark_launch for 10m {
    check response_time < 200 over 1m every 30s
    on success goto "ab"
    on failure rollback
  }
  phase "ab" ab_test 20% for 30m {
    check conversion_rate > 0.01 over 5m every 1m
    on success goto "rollout"
    on failure rollback
  }
  phase "rollout" gradual_rollout from 20% to 100% step 20% every 5m for 30m {
    check error_rate < 0.05 over 2m every 30s
    on success complete
    on failure rollback
  }
}
"#;

    #[test]
    fn parses_the_four_phase_strategy() {
        let s = parse(FULL).unwrap();
        assert_eq!(s.name, "rec-rollout");
        assert_eq!(s.phases.len(), 4);
        assert_eq!(s.variant_b.as_deref(), Some("1.1.0-alt"));
        assert_eq!(s.phases[0].checks.len(), 2);
        assert_eq!(s.phases[0].checks[0].min_samples, 50);
        assert_eq!(s.phases[0].checks[1].scope, CheckScope::CandidateVsBaseline);
        assert!(matches!(s.phases[1].kind, PhaseKind::DarkLaunch));
        assert!(
            matches!(s.phases[2].kind, PhaseKind::AbTest { split_percent } if split_percent == 20.0)
        );
        match &s.phases[3].kind {
            PhaseKind::GradualRollout {
                from_percent,
                to_percent,
                step_percent,
                step_duration,
                guarded,
            } => {
                assert_eq!(*from_percent, 20.0);
                assert_eq!(*to_percent, 100.0);
                assert_eq!(*step_percent, 20.0);
                assert_eq!(*step_duration, SimDuration::from_mins(5));
                assert!(!guarded);
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(s.phases[3].on_success, Action::Complete);
    }

    #[test]
    fn roundtrip_through_pretty_printer() {
        let s = parse(FULL).unwrap();
        let source = to_source(&s);
        let reparsed = parse(&source).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn sequential_check_and_guarded_ramp_parse_and_roundtrip() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "ramp" ramp from 5% to 50% step 5% every 1m guarded for 30m {
              check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 40 tau 0.05
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        assert!(matches!(s.phases[0].kind, PhaseKind::GradualRollout { guarded: true, .. }));
        let check = &s.phases[0].checks[0];
        assert_eq!(check.scope, CheckScope::SequentialVsBaseline);
        assert_eq!(check.threshold, 0.95);
        assert_eq!(check.window, SimDuration::ZERO);
        assert_eq!(check.min_samples, 40);
        assert_eq!(check.tau, Some(0.05));
        let source = to_source(&s);
        assert!(source.contains("sequential vs baseline < confidence 0.95"), "{source}");
        assert!(source.contains("every 60s guarded"), "{source}");
        let reparsed = parse(&source).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn sequential_short_form_and_default_tau() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "ab" ab_test 20% for 20m {
              check conversion_rate sequential_vs_baseline > confidence 0.99 every 1m
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        let check = &s.phases[0].checks[0];
        assert_eq!(check.scope, CheckScope::SequentialVsBaseline);
        assert_eq!(check.threshold, 0.99);
        assert_eq!(check.tau, None);
        assert_eq!(check.min_samples, 20);
        let reparsed = parse(&to_source(&s)).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn interval_past_duration_is_rejected_at_parse_time() {
        // Regression for the never-firing check: validation runs as part
        // of parse, so the misconfiguration surfaces immediately.
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "canary" canary 10% for 5m {
              check error_rate < 0.05 over 1m every 10m
              on success complete
              on failure rollback
            } }"#;
        let err = parse(src).unwrap_err().to_string();
        assert!(err.contains("exceeds phase duration"), "{err}");
    }

    #[test]
    fn trace_scope_parses_and_roundtrips() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "canary" canary 10% for 5m {
              check response_time trace < 150 over 2m every 30s min_samples 25
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        assert_eq!(s.phases[0].checks[0].scope, CheckScope::Trace);
        assert_eq!(s.phases[0].checks[0].min_samples, 25);
        let reparsed = parse(&to_source(&s)).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn significance_scope_parses_and_roundtrips() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "ab" ab_test 25% for 10m {
              check conversion_rate significant_vs_baseline > 0.05 over 5m every 1m min_samples 200
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        assert_eq!(s.phases[0].checks[0].scope, CheckScope::SignificantVsBaseline);
        assert_eq!(s.phases[0].checks[0].threshold, 0.05);
        let reparsed = parse(&to_source(&s)).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn chaos_recovery_phase_parses_and_roundtrips() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "chaos" canary 20% for 10m {
              inject outage on candidate after 2m for 90s
              check error_rate app < 0.02 over 1m every 30s min_samples 50
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        let spec = s.phases[0].chaos.clone().expect("chaos spec");
        assert_eq!(spec.kind, ChaosKind::Outage);
        assert_eq!(spec.target, ChaosTarget::Candidate);
        assert_eq!(spec.start_after, SimDuration::from_mins(2));
        assert_eq!(spec.duration, SimDuration::from_secs(90));
        assert_eq!(s.phases[0].checks[0].scope, CheckScope::App);
        let reparsed = parse(&to_source(&s)).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn chaos_magnitudes_roundtrip_exactly() {
        for inject in ["latency_spike 3.5 on baseline", "error_burst 0.125 on candidate"] {
            let src = format!(
                r#"strategy "s" {{ service "a" baseline "1" candidate "2"
                phase "p" canary 10% for 5m {{
                  inject {inject} after 30s for 1m
                  on success complete
                  on failure rollback
                }} }}"#
            );
            let s = parse(&src).unwrap();
            let reparsed = parse(&to_source(&s)).unwrap();
            assert_eq!(s, reparsed, "inject `{inject}`");
        }
    }

    #[test]
    fn zone_outage_parses_and_roundtrips() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "chaos" canary 20% for 10m {
              inject zone_outage "cell-0" after 2m for 90s
              check error_rate app < 0.05 over 1m every 30s min_samples 50
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        let spec = s.phases[0].chaos.clone().expect("chaos spec");
        assert_eq!(spec.kind, ChaosKind::Outage);
        assert_eq!(spec.target, ChaosTarget::Zone("cell-0".to_string()));
        assert_eq!(spec.start_after, SimDuration::from_mins(2));
        assert_eq!(spec.duration, SimDuration::from_secs(90));
        let printed = to_source(&s);
        assert!(printed.contains("inject zone_outage \"cell-0\" after 120s for 90s"), "{printed}");
        let reparsed = parse(&printed).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn latency_storm_and_zone_targets_roundtrip() {
        for inject in ["latency_storm 4 on zone \"core\"", "error_burst 0.25 on zone \"edge\""] {
            let src = format!(
                r#"strategy "s" {{ service "a" baseline "1" candidate "2"
                phase "p" canary 10% for 5m {{
                  inject {inject} after 30s for 1m
                  on success complete
                  on failure rollback
                }} }}"#
            );
            let s = parse(&src).unwrap();
            assert!(
                matches!(s.phases[0].chaos.as_ref().unwrap().target, ChaosTarget::Zone(_)),
                "inject `{inject}`"
            );
            let reparsed = parse(&to_source(&s)).unwrap();
            assert_eq!(s, reparsed, "inject `{inject}`");
        }
    }

    #[test]
    fn latency_storm_requires_zone_target() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 10% for 5m {
              inject latency_storm 3 on candidate after 30s for 1m
              on success complete
              on failure rollback
            } }"#;
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("needs a zone target"), "{err}");
    }

    #[test]
    fn unknown_inject_kind_names_the_offending_token() {
        let src = "strategy \"s\" { service \"a\" baseline \"1\" candidate \"2\"\n\
                   phase \"p\" canary 1% for 5m {\n\
                   inject meteor_strike on candidate after 30s for 1m\n\
                   on success complete on failure rollback } }";
        match parse(src) {
            Err(BifrostError::Parse { line, column, message }) => {
                assert_eq!(line, 3);
                assert_eq!(column, 8, "{message}");
                assert!(message.contains("`zone_outage`"), "{message}");
                assert!(message.contains("`latency_storm`"), "{message}");
                assert!(message.contains("got `meteor_strike`"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_duration_reports_the_offending_token_and_position() {
        // `5x` lexes as the number 5 followed by the identifier `x`; the
        // duration expectation fails at the number's position and names it.
        let src = "strategy \"s\" { service \"a\" baseline \"1\" candidate \"2\"\n\
                   phase \"p\" canary 1% for 5m {\n\
                   inject outage on candidate after 5x for 1m\n\
                   on success complete on failure rollback } }";
        match parse(src) {
            Err(BifrostError::Parse { line, column, message }) => {
                assert_eq!(line, 3);
                assert_eq!(column, 34, "{message}");
                assert!(message.contains("expected a duration"), "{message}");
                assert!(message.contains("got number `5`"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_inject_is_an_error() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 10% for 5m {
              inject outage on candidate after 30s for 1m
              inject outage on baseline after 40s for 1m
              on success complete
              on failure rollback
            } }"#;
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("more than one `inject`"), "{err}");
    }

    #[test]
    fn durations_and_units() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 1% for 2500ms {
              check error_rate < 0.5 over 1500ms every 1s
              on success complete
              on failure rollback
            } }"#;
        let s = parse(src).unwrap();
        assert_eq!(s.phases[0].duration, SimDuration::from_millis(2500));
        assert_eq!(s.phases[0].checks[0].window, SimDuration::from_millis(1500));
        assert_eq!(s.phases[0].checks[0].interval, SimDuration::from_secs(1));
        // An offset near 2^64 ms would overflow the engine's clock (a panic,
        // or an outage that strikes at once), so it is an error at its token.
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 1% for 5m {
              inject outage on candidate after 18446744073709551615ms for 1m
              on success complete
              on failure rollback
            } }"#;
        match parse(src) {
            Err(BifrostError::Parse { line, column, message }) => {
                assert_eq!((line, column), (3, 48), "{message}");
                assert!(message.contains("18446744073709551615ms is 9e15 ms"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_location() {
        let src = "strategy \"x\" {\n  service 42\n}";
        match parse(src) {
            Err(BifrostError::Parse { line, column, message }) => {
                assert_eq!(line, 2);
                assert!(column >= 10, "column {column}");
                assert!(message.contains("quoted"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_metric_and_kind() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 1% for 5m {
              check latency < 10 over 1m every 30s
              on success complete
              on failure rollback
            } }"#;
        assert!(matches!(parse(src), Err(BifrostError::Parse { .. })));

        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" blue_green 1% for 5m { on success complete on failure rollback } }"#;
        assert!(parse(src).is_err());
    }

    #[test]
    fn missing_handlers_are_errors() {
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 1% for 5m { on success complete } }"#;
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("on failure"), "{err}");
    }

    #[test]
    fn semantic_validation_runs_after_parse() {
        // goto to an unknown phase parses but fails validation.
        let src = r#"strategy "s" { service "a" baseline "1" candidate "2"
            phase "p" canary 1% for 5m {
              on success goto "ghost"
              on failure rollback
            } }"#;
        assert!(matches!(parse(src), Err(BifrostError::InvalidStrategy(_))));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "# leading comment\nstrategy \"s\" { # inline\n service \"a\"\n baseline \"1\"\n candidate \"2\"\n phase \"p\" dark_launch for 1m {\n on success complete\n on failure rollback\n } }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(parse("strategy \"oops"), Err(BifrostError::Parse { .. })));
    }

    #[test]
    fn trailing_input_rejected() {
        let src = format!("{FULL} strategy");
        assert!(parse(&src).is_err());
    }

    #[test]
    fn parse_all_reads_a_fleet() {
        let one = parse(FULL).unwrap();
        let mut two = one.clone();
        two.name = "second".into();
        let source = format!("{}\n{}", to_source(&one), to_source(&two));
        let fleet = parse_all(&source).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[0], one);
        assert_eq!(fleet[1].name, "second");
        assert_eq!(parse_all("").unwrap().len(), 0);
    }

    #[test]
    fn parse_all_rejects_duplicate_names() {
        let one = parse(FULL).unwrap();
        let source = format!("{}\n{}", to_source(&one), to_source(&one));
        assert!(matches!(parse_all(&source), Err(BifrostError::InvalidStrategy(_))));
    }

    #[test]
    fn parse_fleet_reads_a_runtime_block() {
        let one = parse(FULL).unwrap();
        let source =
            format!("runtime {{\n  report_every 5\n  profile off\n}}\n{}", to_source(&one));
        let (fleet, settings) = parse_fleet(&source).unwrap();
        assert_eq!(fleet.len(), 1);
        assert_eq!(settings, RuntimeSettings { report_every: 5, profile: false });
        // The settings translate onto an engine config.
        let mut config = crate::engine::EngineConfig::default();
        settings.apply(&mut config);
        assert_eq!(config.runtime_report_every, 5);
        assert!(!config.obs.profile);
        // Absent block → defaults (cadence off, profiling on).
        let (_, defaults) = parse_fleet(&to_source(&one)).unwrap();
        assert_eq!(defaults, RuntimeSettings::default());
        // Later blocks override earlier ones; order is free.
        let source = format!(
            "runtime {{ profile off }}\n{}\nruntime {{ report_every 2 profile on }}",
            to_source(&one)
        );
        let (_, merged) = parse_fleet(&source).unwrap();
        assert_eq!(merged, RuntimeSettings { report_every: 2, profile: true });
        // parse_all tolerates runtime blocks and just drops the settings.
        assert_eq!(parse_all(&source).unwrap().len(), 1);
    }

    #[test]
    fn malformed_settings_and_counts_are_rejected_where_they_stand() {
        // Each row: a source, the token the error must point at (its first
        // occurrence), and a piece of the message.
        let check = |tail: &str| {
            format!(
                "strategy \"s\" {{ service \"a\" baseline \"1\" candidate \"2\"\n\
                 phase \"p\" canary 1% for 5m {{\n  check error_rate{tail}\n\
                 on success complete on failure rollback }} }}"
            )
        };
        let windowed =
            |count: &str| check(&format!(" < 0.05 over 1m every 30s min_samples {count}"));
        let sequential =
            check(" sequential vs baseline < confidence 0.95 every 30s min_samples 2.5");
        let big = "100000000000000000000000";
        let phase_for = |length: &str| {
            format!(
                "strategy \"s\" {{ service \"a\" baseline \"1\" candidate \"2\"\n\
                 phase \"p\" canary 1% for {length} {{ on success complete on failure rollback }} }}"
            )
        };
        for (src, token, needle) in [
            ("runtime { report_every 1.5 }".to_string(), "1.5", "whole count"),
            ("runtime { report_every 100% }".to_string(), "100%", "got percentage `100%`"),
            (format!("runtime {{ report_every {big} }}"), big, "below 2^64"),
            ("runtime { profile maybe }".to_string(), "maybe", "`on` or `off`"),
            ("runtime { cadence 3 }".to_string(), "cadence", "`report_every`, `profile`"),
            ("runtime { report_every 3".to_string(), "3", "expected"),
            (windowed("2.5"), "2.5", "`min_samples` takes a whole count"),
            (windowed("50%"), "50%", "got percentage `50%`"),
            (windowed(big), big, "below 2^64"),
            (sequential, "2.5", "`min_samples` takes a whole count"),
            (phase_for("1.5ms"), "1.5ms", "duration 1.5ms is not a whole number of milliseconds"),
            (phase_for("0.0001s"), "0.0001s", "not a whole number of milliseconds"),
            (phase_for(&format!("{big}m")), big, "is 9e15 ms (about 285,000 years) or longer"),
            (phase_for("99999999999999999999m"), "9999", "or longer"),
            (phase_for("18446744073709551616ms"), "1844", "or longer"),
            (phase_for("9000000000000000ms"), "9000", "or longer"),
            (phase_for("2500000000h"), "2500", "or longer"),
            (check(" < 0.05 over 2.0005s every 30s"), "2.0005s", "not a whole number"),
        ] {
            let at = src.find(token).expect("the row names a token of its source");
            let line = src[..at].matches('\n').count() + 1;
            let column = src[..at].rfind('\n').map_or(at, |nl| at - nl - 1) + 1;
            match parse_fleet(&src) {
                Err(BifrostError::Parse { line: l, column: c, message }) => {
                    assert_eq!((l, c), (line, column), "{src} -> {message}");
                    assert!(message.contains(needle), "{src} -> {message}");
                }
                other => panic!("{src} -> expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fractional_durations_are_exact_milliseconds() {
        // Each was a millisecond short, or more, when the lexer multiplied
        // in floating point.
        let length = |text: &str| {
            let src = format!(
                "strategy \"s\" {{ service \"a\" baseline \"1\" candidate \"2\"\n\
                 phase \"p\" canary 1% for {text} {{ on success complete on failure rollback }} }}"
            );
            parse(&src).unwrap_or_else(|e| panic!("{text}: {e}")).phases[0].duration.as_millis()
        };
        for (text, ms) in [
            ("4.1m", 246_000),
            ("2.01s", 2_010),
            ("8.2m", 492_000),
            ("2.3h", 8_280_000),
            ("4.35m", 261_000),
            ("1.15h", 4_140_000),
        ] {
            assert_eq!(length(text), ms, "{text}");
        }
        // The digits' own edges: trailing zeros past 10^38, leading zeros,
        // a bare point, and the longest duration the language takes.
        for (text, ms) in [
            ("1.50000000000000000000000000000000000000000s", 1_500),
            ("007.5s", 7_500),
            ("5.ms", 5),
            ("8999999999999999ms", 8_999_999_999_999_999),
        ] {
            assert_eq!(length(text), ms, "{text}");
        }
    }
}
