//! Linear tree patterns — the query class of the Filter's YFilterσ stage.
//!
//! YFilter (Diao et al., ICDE 2002) handles *linear path expressions* with
//! `/` and `//` axes, name tests, wildcards and simple value predicates on a
//! step.  The paper's Filter compiles the complex part `Q'_i` of each
//! subscription into such patterns.
//!
//! [`PathPattern::matches`] is the one way a pattern is evaluated: the
//! filter engine in `p2pmon-filter` calls it on the patterns of the
//! subscriptions a document left active, and the naive filter on all of
//! them.

use std::fmt;

use crate::node::Element;
use crate::path::{
    Axis, CompareOp, NameTest, Output, PathError, Predicate, PredicateOperand, XPath,
};
use crate::value::Value;

/// One step of a linear pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PatternStep {
    /// Axis linking this step to its parent step.
    axis: Axis,
    /// Element name test.
    name: NameTest,
    /// Optional value predicate `@attr op literal` or `text() op literal`
    /// evaluated on the element matching this step.
    predicate: Option<ValuePredicate>,
}

/// A value predicate attached to a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ValuePredicate {
    /// `Some(attr)` → attribute test, `None` → text() test.
    on_attribute: Option<String>,
    /// The comparison operator.
    op: CompareOp,
    /// The literal (raw string; typed lazily).
    literal: String,
}

impl ValuePredicate {
    /// Evaluates the predicate on an element.
    fn eval(&self, element: &Element) -> bool {
        let lit = Value::from_literal(&self.literal);
        match &self.on_attribute {
            Some(attr) => match element.attr(attr) {
                Some(v) => self.op.apply(&Value::from_literal(v), &lit),
                None => false,
            },
            None => self.op.apply(&Value::from_literal(&element.text()), &lit),
        }
    }
}

/// A linear path pattern such as `//a/b[@x="1"]` or `/rss/channel/item`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathPattern {
    /// The sequence of steps, root-most first.
    steps: Vec<PatternStep>,
    source: String,
}

impl PathPattern {
    /// Parses a linear pattern from XPath syntax.
    ///
    /// The expression must stay within the linear class: element output,
    /// at most one value predicate per step, no positional predicates and no
    /// nested relative-path predicates.
    pub fn parse(input: &str) -> Result<PathPattern, PathError> {
        let xpath = XPath::parse(input)?;
        Self::from_xpath(&xpath)
    }

    /// Converts an [`XPath`] into a linear pattern if it is in the class.
    pub fn from_xpath(xpath: &XPath) -> Result<PathPattern, PathError> {
        if xpath.output != Output::Elements {
            return Err(PathError {
                message: "tree patterns must select elements, not attributes or text".into(),
            });
        }
        let mut steps = Vec::with_capacity(xpath.steps.len());
        for (i, step) in xpath.steps.iter().enumerate() {
            if step.predicates.len() > 1 {
                return Err(PathError {
                    message: "at most one predicate per step in a linear pattern".into(),
                });
            }
            let mut axis = step.axis;
            if i == 0 && !xpath.absolute {
                // Relative patterns are matched anywhere in the tree.
                axis = Axis::Descendant;
            }
            let predicate = match step.predicates.first() {
                None => None,
                Some(Predicate::Compare {
                    operand,
                    op,
                    literal,
                }) => {
                    let on_attribute = match operand {
                        PredicateOperand::Attribute(a) => Some(a.clone()),
                        PredicateOperand::Text => None,
                        PredicateOperand::RelativePath(_) => {
                            return Err(PathError {
                                message: "nested path predicates are not linear".into(),
                            })
                        }
                    };
                    Some(ValuePredicate {
                        on_attribute,
                        op: *op,
                        literal: literal.clone(),
                    })
                }
                Some(Predicate::Exists(PredicateOperand::Attribute(a))) => Some(ValuePredicate {
                    on_attribute: Some(a.clone()),
                    op: CompareOp::Ne,
                    literal: "\u{0}__never__".into(),
                }),
                Some(_) => {
                    return Err(PathError {
                        message: "unsupported predicate in a linear pattern".into(),
                    })
                }
            };
            steps.push(PatternStep {
                axis,
                name: step.name.clone(),
                predicate,
            });
        }
        if steps.is_empty() {
            return Err(PathError {
                message: "empty pattern".into(),
            });
        }
        Ok(PathPattern {
            steps,
            source: xpath.source().to_string(),
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the pattern has no steps (never constructed by `parse`).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Naive matching: does the pattern match anywhere in `root`'s tree?
    ///
    /// The document element itself is eligible to match the first step.
    pub fn matches(&self, root: &Element) -> bool {
        self.match_step(root, 0, true)
    }

    fn match_step(&self, element: &Element, step_idx: usize, is_root: bool) -> bool {
        let step = &self.steps[step_idx];
        // Candidate elements for this step, relative to `element` acting as
        // the parent context (or the document node when `is_root`).
        match step.axis {
            Axis::Child => {
                if is_root {
                    if self.step_matches_element(step, element)
                        && self.match_rest(element, step_idx)
                    {
                        return true;
                    }
                    false
                } else {
                    for child in element.child_elements() {
                        if self.step_matches_element(step, child)
                            && self.match_rest(child, step_idx)
                        {
                            return true;
                        }
                    }
                    false
                }
            }
            Axis::Descendant => {
                let mut stack: Vec<&Element> = Vec::new();
                if is_root {
                    stack.push(element);
                } else {
                    stack.extend(element.child_elements());
                }
                while let Some(e) = stack.pop() {
                    if self.step_matches_element(step, e) && self.match_rest(e, step_idx) {
                        return true;
                    }
                    stack.extend(e.child_elements());
                }
                false
            }
        }
    }

    fn match_rest(&self, matched: &Element, step_idx: usize) -> bool {
        if step_idx + 1 == self.steps.len() {
            true
        } else {
            self.match_step(matched, step_idx + 1, false)
        }
    }

    fn step_matches_element(&self, step: &PatternStep, element: &Element) -> bool {
        if !step.name.matches(&element.name) {
            return false;
        }
        match &step.predicate {
            None => true,
            Some(p) => p.eval(element),
        }
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// The indices of `patterns` that match `doc`.
    fn matching(patterns: &[&str], doc: &Element) -> Vec<usize> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| PathPattern::parse(p).unwrap().matches(doc))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn absolute_and_descendant_queries() {
        let doc = parse("<rss><channel><item><title>x</title></item></channel></rss>").unwrap();
        let patterns = ["/rss/channel/item", "//item/title", "/rss/missing"];
        assert_eq!(matching(&patterns, &doc), vec![0, 1]);
    }

    #[test]
    fn wildcard_queries() {
        let patterns = ["/a/*/c", "/a/b/*"];
        let doc = parse("<a><b><c/></b></a>").unwrap();
        assert_eq!(matching(&patterns, &doc), vec![0, 1]);
        let doc2 = parse("<a><b><d/></b></a>").unwrap();
        assert_eq!(matching(&patterns, &doc2), vec![1]);
    }

    #[test]
    fn predicates_on_steps() {
        let patterns = [
            r#"//alert[@method="GetTemperature"]"#,
            r#"//alert[@method="GetHumidity"]"#,
            "//alert",
        ];
        let doc = parse(r#"<root><alert method="GetTemperature"/></root>"#).unwrap();
        assert_eq!(matching(&patterns, &doc), vec![0, 2]);
    }

    #[test]
    fn root_element_is_matchable_by_first_step() {
        let doc = parse("<alert><body/></alert>").unwrap();
        assert_eq!(matching(&["/alert/body", "//alert"], &doc), vec![0, 1]);
    }

    #[test]
    fn unparsed_documents_with_uninterned_names_still_match_wildcards() {
        // Built programmatically (never through the tokenizer) with a name no
        // pattern mentions: name tests must not match it, but wildcards must.
        let mut root = Element::new("completely-uninterned-root-name");
        root.push_element(Element::new("inner"));
        assert_eq!(matching(&["/*/inner", "//inner"], &root), vec![0, 1]);
        assert!(matching(&["/completely-absent-name/x"], &root).is_empty());
    }

    #[test]
    fn simple_child_chain() {
        let doc = parse("<rss><channel><item><title>x</title></item></channel></rss>").unwrap();
        let p = PathPattern::parse("/rss/channel/item").unwrap();
        assert!(p.matches(&doc));
        let p = PathPattern::parse("/rss/item").unwrap();
        assert!(!p.matches(&doc));
    }

    #[test]
    fn descendant_axis_anywhere() {
        let doc = parse("<root><x><c><d>1</d></c></x></root>").unwrap();
        assert!(PathPattern::parse("//c/d").unwrap().matches(&doc));
        assert!(!PathPattern::parse("//c/e").unwrap().matches(&doc));
    }

    #[test]
    fn relative_pattern_is_descendant() {
        let doc = parse("<root><a><b/></a></root>").unwrap();
        assert!(PathPattern::parse("a/b").unwrap().matches(&doc));
    }

    #[test]
    fn wildcard_step() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        assert!(PathPattern::parse("/a/*/c").unwrap().matches(&doc));
    }

    #[test]
    fn attribute_predicate() {
        let doc = parse(r#"<alert method="GetTemperature"><body/></alert>"#).unwrap();
        assert!(PathPattern::parse(r#"//alert[@method="GetTemperature"]"#)
            .unwrap()
            .matches(&doc));
        assert!(!PathPattern::parse(r#"//alert[@method="Other"]"#)
            .unwrap()
            .matches(&doc));
    }

    #[test]
    fn text_predicate_with_numeric_comparison() {
        let doc = parse("<m><price>15</price></m>").unwrap();
        assert!(PathPattern::parse("//price[text() > 10]")
            .unwrap()
            .matches(&doc));
        assert!(!PathPattern::parse("//price[text() > 20]")
            .unwrap()
            .matches(&doc));
    }

    #[test]
    fn attribute_existence_predicate() {
        let doc = parse(r#"<a><b x="1"/><b/></a>"#).unwrap();
        assert!(PathPattern::parse("//b[@x]").unwrap().matches(&doc));
        assert!(!PathPattern::parse("//b[@missing]").unwrap().matches(&doc));
    }

    #[test]
    fn rejects_non_linear_expressions() {
        assert!(PathPattern::parse("/a/@x").is_err());
        assert!(PathPattern::parse("/a[b/c]/d").is_err());
        assert!(PathPattern::parse("/a[2]").is_err());
    }

    #[test]
    fn double_descendant() {
        let doc = parse("<a><x><b><y><c/></y></b></x></a>").unwrap();
        assert!(PathPattern::parse("//b//c").unwrap().matches(&doc));
        assert!(!PathPattern::parse("//c//b").unwrap().matches(&doc));
    }

    #[test]
    fn double_descendant_and_deep_nesting() {
        let doc = parse("<a><b><c><d/></c></b></a>").unwrap();
        assert_eq!(matching(&["//b//d", "//d//b"], &doc), vec![0]);
    }

    #[test]
    fn text_predicate() {
        let patterns = ["//price[text() > 100]"];
        let expensive = parse("<order><price>250</price></order>").unwrap();
        let cheap = parse("<order><price>50</price></order>").unwrap();
        assert_eq!(matching(&patterns, &expensive), vec![0]);
        assert!(matching(&patterns, &cheap).is_empty());
    }
}
