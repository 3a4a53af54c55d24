//! RETURN-clause / Restructure templates.
//!
//! The RETURN clause of a P2PML subscription (and the template parameter `T`
//! of the Restructure operator ΠT) is XML data with curly-bracket-guarded
//! expressions evaluated at run time:
//!
//! ```xml
//! <incident type="slowAnswer">
//!   <client>{$c1.caller}</client>
//!   <tstamp>{$c2.callTimestamp}</tstamp>
//! </incident>
//! ```
//!
//! Supported placeholder expressions:
//!
//! * `{$var}` — in element content, embeds a copy of the bound tree (or the
//!   derived value's text); in attribute values, the value's text.
//! * `{$var.attr}` — a root attribute of the bound tree.
//! * `{$var/relative/path}` — the first value, in document order, that an
//!   XPath selects.

use std::fmt;

use p2pmon_xmlkit::{parse, parse_element_at, Element, Node, ParseError, Value, XPath};

use crate::binding::Bindings;

/// Errors raised when parsing a template.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateError {
    /// The template body is not well-formed XML.
    Xml(ParseError),
    /// A placeholder expression is malformed.
    Placeholder(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Xml(e) => write!(f, "template XML error: {e}"),
            TemplateError::Placeholder(m) => write!(f, "template placeholder error: {m}"),
        }
    }
}

impl std::error::Error for TemplateError {}

/// A placeholder expression inside a template.
#[derive(Debug, Clone, PartialEq)]
pub enum Placeholder {
    /// `{$var}`.
    Whole(String),
    /// `{$var.attr}`.
    Attr(String, String),
    /// `{$var/path}`.
    Path(String, XPath),
}

impl Placeholder {
    /// Parses the inside of a `{...}` placeholder.
    pub fn parse(expr: &str) -> Result<Placeholder, TemplateError> {
        let expr = expr.trim();
        let stripped = expr
            .strip_prefix('$')
            .ok_or_else(|| TemplateError::Placeholder(format!("`{expr}` must start with `$`")))?;
        if let Some((var, path)) = stripped.split_once('/') {
            let xpath = XPath::parse(path)
                .map_err(|e| TemplateError::Placeholder(format!("bad path in `{expr}`: {e}")))?;
            return Ok(Placeholder::Path(var.to_string(), xpath));
        }
        if let Some((var, attr)) = stripped.split_once('.') {
            if attr.is_empty() || var.is_empty() {
                return Err(TemplateError::Placeholder(format!("malformed `{expr}`")));
            }
            return Ok(Placeholder::Attr(var.to_string(), attr.to_string()));
        }
        if stripped.is_empty() {
            return Err(TemplateError::Placeholder("empty placeholder".into()));
        }
        Ok(Placeholder::Whole(stripped.to_string()))
    }

    /// Evaluates the placeholder to a textual value.
    pub fn eval_value(&self, bindings: &Bindings) -> Option<Value> {
        match self {
            Placeholder::Whole(var) => match bindings.value(var) {
                Some(v) => Some(v.clone()),
                None => bindings.tree(var).map(|t| Value::from_literal(&t.text())),
            },
            Placeholder::Attr(var, attr) => bindings.tree(var)?.attr_value(attr),
            Placeholder::Path(var, path) => path.first_value(bindings.tree(var)?),
        }
    }

    /// The variable referenced.
    pub fn variable(&self) -> &str {
        match self {
            Placeholder::Whole(v) | Placeholder::Attr(v, _) | Placeholder::Path(v, _) => v,
        }
    }
}

/// A parsed template.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    skeleton: Element,
    source: String,
}

impl Template {
    /// Parses a template from its XML text.
    pub fn parse(source: &str) -> Result<Template, TemplateError> {
        let skeleton = parse(source).map_err(TemplateError::Xml)?;
        // Validate every placeholder now so instantiation cannot fail on
        // syntax.
        validate_placeholders(&skeleton)?;
        Ok(Template {
            skeleton,
            source: source.trim().to_string(),
        })
    }

    /// Parses the template element that starts at byte `pos` of `text` and
    /// returns it with the number of bytes it spans, as
    /// [`p2pmon_xmlkit::parse_element_at`] does: a language that embeds a
    /// template (P2PML's RETURN clause) parses it where it stands.
    pub fn parse_at(text: &str, pos: usize) -> Result<(Template, usize), TemplateError> {
        let (skeleton, used) = parse_element_at(text, pos).map_err(TemplateError::Xml)?;
        validate_placeholders(&skeleton)?;
        let source = text[pos..pos + used].trim().to_string();
        Ok((Template { skeleton, source }, used))
    }

    /// Builds a template directly from an already-constructed skeleton.
    pub fn from_element(skeleton: Element) -> Result<Template, TemplateError> {
        validate_placeholders(&skeleton)?;
        let source = skeleton.to_xml();
        Ok(Template { skeleton, source })
    }

    /// The original template text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The variables referenced by the template's placeholders.
    pub fn variables(&self) -> Vec<String> {
        let mut vars = Vec::new();
        collect_variables(&self.skeleton, &mut vars);
        vars.sort();
        vars.dedup();
        vars
    }

    /// Instantiates the template with the given bindings.  Placeholders whose
    /// variable or attribute is missing evaluate to the empty string (and an
    /// empty node set for whole-tree embeddings), mirroring XQuery's handling
    /// of empty sequences in element constructors.
    pub fn instantiate(&self, bindings: &Bindings) -> Element {
        instantiate_element(&self.skeleton, bindings)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

fn validate_placeholders(element: &Element) -> Result<(), TemplateError> {
    for (_, v) in &element.attributes {
        for expr in placeholder_exprs(v) {
            Placeholder::parse(expr)?;
        }
    }
    for child in &element.children {
        match child {
            Node::Text(t) => {
                for expr in placeholder_exprs(t) {
                    Placeholder::parse(expr)?;
                }
            }
            Node::Element(e) => validate_placeholders(e)?,
        }
    }
    Ok(())
}

fn collect_variables(element: &Element, out: &mut Vec<String>) {
    for (_, v) in &element.attributes {
        for expr in placeholder_exprs(v) {
            if let Ok(p) = Placeholder::parse(expr) {
                out.push(p.variable().to_string());
            }
        }
    }
    for child in &element.children {
        match child {
            Node::Text(t) => {
                for expr in placeholder_exprs(t) {
                    if let Ok(p) = Placeholder::parse(expr) {
                        out.push(p.variable().to_string());
                    }
                }
            }
            Node::Element(e) => collect_variables(e, out),
        }
    }
}

/// The `{...}` placeholder expressions of a text run, borrowed from it.
fn placeholder_exprs(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        let open = rest.find('{')?;
        let close = open + rest[open..].find('}')?;
        let expr = &rest[open + 1..close];
        rest = &rest[close + 1..];
        Some(expr)
    })
}

fn instantiate_element(skeleton: &Element, bindings: &Bindings) -> Element {
    let mut out = Element::new(skeleton.name.clone());
    for (k, v) in &skeleton.attributes {
        out.set_attr(k.clone(), substitute_text(v, bindings));
    }
    for child in &skeleton.children {
        match child {
            Node::Element(e) => {
                out.push_element(instantiate_element(e, bindings));
            }
            Node::Text(t) => instantiate_text(t, bindings, &mut out),
        }
    }
    out
}

/// Substitutes placeholders in attribute values (always textual).
fn substitute_text(text: &str, bindings: &Bindings) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        match rest[open..].find('}') {
            Some(close) => {
                let expr = &rest[open + 1..open + close];
                if let Ok(p) = Placeholder::parse(expr) {
                    if let Some(v) = p.eval_value(bindings) {
                        out.push_str(&v.as_string());
                    }
                }
                rest = &rest[open + close + 1..];
            }
            None => {
                out.push_str(&rest[open..]);
                return out;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Substitutes placeholders in element content.  A `{$var}` placeholder
/// referring to a bound *tree* embeds a copy of the tree; everything else
/// becomes text.
fn instantiate_text(text: &str, bindings: &Bindings, parent: &mut Element) {
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        let before = &rest[..open];
        if !before.is_empty() {
            parent.push_text(before);
        }
        match rest[open..].find('}') {
            Some(close) => {
                let expr = &rest[open + 1..open + close];
                if let Ok(p) = Placeholder::parse(expr) {
                    match &p {
                        Placeholder::Whole(var) if bindings.tree(var).is_some() => {
                            parent.push_element(bindings.tree(var).expect("checked").clone());
                        }
                        _ => {
                            if let Some(v) = p.eval_value(bindings) {
                                parent.push_text(v.as_string());
                            }
                        }
                    }
                }
                rest = &rest[open + close + 1..];
            }
            None => {
                parent.push_text(&rest[open..]);
                return;
            }
        }
    }
    if !rest.is_empty() {
        parent.push_text(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmon_xmlkit::parse;

    fn bindings() -> Bindings {
        let mut b = Bindings::new();
        b.bind_tree(
            "c1",
            parse(r#"<alert callId="42" caller="http://a.com"><soap><city>Orsay</city></soap></alert>"#)
                .unwrap(),
        );
        b.bind_tree(
            "c2",
            parse(r#"<alert callId="42" callTimestamp="101"/>"#).unwrap(),
        );
        b.bind_value("duration", Value::Integer(15));
        b
    }

    #[test]
    fn paper_return_clause() {
        let t = Template::parse(
            r#"<incident type="slowAnswer"><client>{$c1.caller}</client><tstamp>{$c2.callTimestamp}</tstamp></incident>"#,
        )
        .unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.attr("type"), Some("slowAnswer"));
        assert_eq!(out.child("client").unwrap().text(), "http://a.com");
        assert_eq!(out.child("tstamp").unwrap().text(), "101");
    }

    #[test]
    fn whole_tree_embedding() {
        let t = Template::parse("<wrapped>{$c1}</wrapped>").unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.child("alert").unwrap().attr("callId"), Some("42"));
    }

    #[test]
    fn derived_value_and_path_placeholders() {
        let t = Template::parse(r#"<r d="{$duration}"><city>{$c1/soap/city}</city></r>"#).unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.attr("d"), Some("15"));
        assert_eq!(out.child("city").unwrap().text(), "Orsay");
    }

    #[test]
    fn mixed_text_and_placeholders() {
        let t = Template::parse("<msg>call {$c1.callId} took {$duration}s</msg>").unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.text(), "call 42 took 15s");
    }

    #[test]
    fn missing_variable_yields_empty() {
        let t = Template::parse("<r a=\"{$missing.attr}\">{$missing}</r>").unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.attr("a"), Some(""));
        assert_eq!(out.text(), "");
    }

    #[test]
    fn variables_are_reported() {
        let t = Template::parse(r#"<r a="{$x.id}"><b>{$y}</b><c>{$x/path/p}</c></r>"#).unwrap();
        assert_eq!(t.variables(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn malformed_placeholders_are_rejected_at_parse_time() {
        assert!(Template::parse("<r>{not_a_var}</r>").is_err());
        assert!(Template::parse("<r>{$}</r>").is_err());
        assert!(Template::parse("<r attr=\"{$x.}\"/>").is_err());
        assert!(Template::parse("<not-xml").is_err());
    }

    #[test]
    fn unclosed_brace_is_literal_text() {
        let t = Template::parse("<r>brace { literal</r>").unwrap();
        let out = t.instantiate(&bindings());
        assert_eq!(out.text(), "brace { literal");
    }
}
