//! # p2pmon-p2pml
//!
//! The P2PML subscription language (Section 2 of the paper).
//!
//! A *monitoring subscription* is a declarative statement with five clauses,
//! in an XQuery-FLWR-flavoured syntax:
//!
//! ```text
//! for $c1 in outCOM(<p>http://a.com</p> <p>http://b.com</p>),
//!     $c2 in inCOM(<p>http://meteo.com</p>)
//! let $duration := $c1.responseTimestamp - $c1.callTimestamp
//! where
//!     $duration > 10 and
//!     $c1.callMethod = "GetTemperature" and
//!     $c1.callee = "http://meteo.com" and
//!     $c1.callId = $c2.callId
//! return
//!     <incident type="slowAnswer">
//!       <client>{$c1.caller}</client>
//!       <tstamp>{$c2.callTimestamp}</tstamp>
//!     </incident>
//! by publish as channel "alertQoS";
//! ```
//!
//! * **FOR** names the information sources: alerter functions over the
//!   monitored peers, nested subscriptions, channels or (for dynamic
//!   collections of monitored peers) another stream variable.
//! * **LET** derives values from the bound variables.
//! * **WHERE** is a conjunction of comparisons: *simple conditions* on root
//!   attributes, XPath conditions on content, and join predicates across
//!   variables.
//! * **RETURN** gives the output template, optionally `distinct`.
//! * **BY** says how the user is notified: published as a channel, an e-mail,
//!   a file / Web page or an RSS feed.
//!
//! The crate provides the [`ast`], the [`parser`] (a hand-written
//! recursive-descent scanner, standing in for the paper's JavaCC grammar) and
//! the [`plan`] module that compiles a parsed subscription into a *logical
//! monitoring plan* — the operator tree that `p2pmon-core`'s Subscription
//! Manager will optimize, place and deploy.

pub mod ast;
pub mod parser;
pub mod plan;

pub use ast::{ByClause, ForBinding, LetBinding, SourceExpr, Subscription, ValueExpr};
pub use parser::{parse_subscription, ParseErrorP2pml};
pub use plan::{compile, LogicalNode, LogicalPlan, PlanError};

/// Parses and compiles a subscription in one step: the parsed subscription
/// moves into the plan.
pub fn compile_subscription(source: &str) -> Result<LogicalPlan, CompileError> {
    let subscription = parse_subscription(source).map_err(CompileError::Parse)?;
    plan::compile_owned(subscription).map_err(CompileError::Plan)
}

/// Errors from [`compile_subscription`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The subscription text did not parse.
    Parse(ParseErrorP2pml),
    /// The subscription parsed but could not be compiled into a plan.
    Plan(PlanError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The Figure 1 subscription of the paper, used across tests, examples and
/// benches.
pub const METEO_SUBSCRIPTION: &str = r#"
for $c1 in outCOM(<p>http://a.com</p> <p>http://b.com</p>),
    $c2 in inCOM(<p>http://meteo.com</p>)
let $duration := $c1.responseTimestamp - $c1.callTimestamp
where
    $duration > 10 and
    $c1.callMethod = "GetTemperature" and
    $c1.callee = "http://meteo.com" and
    $c1.callId = $c2.callId
return
    <incident type="slowAnswer">
      <client>{$c1.caller}</client>
      <tstamp>{$c2.callTimestamp}</tstamp>
    </incident>
by publish as channel "alertQoS";
"#;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn the_paper_example_parses_and_compiles() {
        let plan = compile_subscription(METEO_SUBSCRIPTION).expect("figure 1 must compile");
        assert_eq!(plan.by, ByClause::Channel("alertQoS".to_string()));
        assert!(plan.root.to_string().contains("join"));
    }
}
