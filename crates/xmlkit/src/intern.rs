//! A process-wide QName interner.
//!
//! The monitoring hot path compares names constantly: peer and channel names
//! key the dispatch and rate tables.  Those names are interned once into
//! stable [`Symbol`]s (a [`Name`] interns itself), and the hot paths compare
//! 32-bit integers instead of hashing strings over and over.
//!
//! Parsing a document interns nothing: its element and attribute names stay
//! strings, so monitored traffic with ever-new tag names cannot grow the
//! table.
//!
//! Interned names are leaked intentionally — the table is append-only, and
//! what is interned is the peer and channel names deployments mint, not
//! traffic.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned QName: a dense, process-wide stable 32-bit id.
///
/// Equality of symbols is equality of the underlying names; symbols are
/// `Copy`, hash as a single integer and order by interning time (not
/// alphabetically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The interned name this symbol stands for.
    pub fn as_str(self) -> &'static str {
        resolve(self)
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Default)]
struct Interner {
    by_name: HashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    #[cfg(debug_assertions)]
    LOCK_ACQUISITIONS.with(|count| count.set(count.get() + 1));
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

#[cfg(debug_assertions)]
thread_local! {
    static LOCK_ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times the calling thread has reached for the interner's lock —
/// one per [`intern`] hit, [`lookup`], [`resolve`] and so per [`Name`]
/// created from a string, resolved to one, or *ordered* against another.
/// Debug builds only (release builds count nothing): tests read it to pin a
/// path at zero acquisitions per message.  Per thread, so tests running in
/// parallel do not disturb each other's reading.
#[cfg(debug_assertions)]
pub fn lock_acquisitions() -> u64 {
    LOCK_ACQUISITIONS.with(std::cell::Cell::get)
}

/// Interns a name, returning its stable symbol.  Idempotent and thread-safe;
/// the common case (name already interned) takes only a read lock.
pub fn intern(name: &str) -> Symbol {
    if let Some(sym) = lookup(name) {
        return sym;
    }
    let mut t = table().write().expect("interner poisoned");
    if let Some(&sym) = t.by_name.get(name) {
        return sym;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let sym = Symbol(u32::try_from(t.names.len()).expect("interner overflow"));
    t.names.push(leaked);
    t.by_name.insert(leaked, sym);
    sym
}

/// Looks a name up without interning it.  `None` means the name was never
/// interned.
pub fn lookup(name: &str) -> Option<Symbol> {
    table()
        .read()
        .expect("interner poisoned")
        .by_name
        .get(name)
        .copied()
}

/// The name behind a symbol.
///
/// # Panics
///
/// Panics when the symbol did not come from [`intern`].
pub fn resolve(sym: Symbol) -> &'static str {
    table().read().expect("interner poisoned").names[sym.0 as usize]
}

/// Number of names interned so far (monotone; a coarse vocabulary measure).
pub fn interned_count() -> usize {
    table().read().expect("interner poisoned").names.len()
}

/// An interned *identity* string: a peer name, a stream/channel id, a
/// function name.  `Name` wraps a [`Symbol`] so equality and hashing are
/// single-integer operations — the currency of the routing tables, the
/// network inboxes and the per-peer maps on the dispatch hot path — while
/// **ordering compares the underlying strings**: every `BTreeMap`/`BTreeSet`
/// keyed by `Name` iterates in the same deterministic, alphabetical order a
/// `String`-keyed map would, independent of interning order (which varies
/// across processes and test schedules).
///
/// That makes the two halves cost very different things.  `==` and `Hash`
/// touch nothing but the integer; `<` resolves *both* names through the
/// interner's `RwLock` and compares the strings — at every level of a tree
/// descent.  The rule that follows: **ordered containers keyed by a `Name`
/// are for listings and reports, never for a per-message path.**  Key the hot
/// table by hash, and sort when something is printed or digested.
///
/// `Name` derefs to `str`, so read-only call sites (`&name` where `&str` is
/// expected, `name.starts_with(..)`, `format!("{name}")`) compile unchanged.
#[derive(Clone, Copy)]
pub struct Name(Symbol);

impl Name {
    /// Interns (or looks up) `raw` and returns its identity.
    pub fn new(raw: &str) -> Self {
        Name(intern(raw))
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// The underlying symbol (for dense per-symbol tables).
    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Equal symbols ⇔ equal strings (the interner is injective), so this
        // agrees with the string-comparing `Ord` below.
        self.0 == other.0
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Name {
    fn from(raw: &str) -> Self {
        Name::new(raw)
    }
}

/// `lookup(raw).map(Name::from)` finds a name without interning it.
impl From<Symbol> for Name {
    fn from(sym: Symbol) -> Self {
        Name(sym)
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Self {
        *name
    }
}

impl From<&String> for Name {
    fn from(raw: &String) -> Self {
        Name::new(raw)
    }
}

impl From<String> for Name {
    fn from(raw: String) -> Self {
        Name::new(&raw)
    }
}

impl From<Name> for String {
    fn from(name: Name) -> Self {
        name.as_str().to_string()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_stable() {
        let a = intern("soap:Envelope");
        let b = intern("soap:Envelope");
        let c = intern("soap:Body");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(resolve(a), "soap:Envelope");
        assert_eq!(a.as_str(), "soap:Envelope");
        assert_eq!(a.to_string(), "soap:Envelope");
    }

    #[test]
    fn lookup_does_not_intern() {
        // Tests on other threads intern into the same table, so the global
        // count can move under this one; a second miss on the same name is
        // what shows the first lookup left it out.
        assert_eq!(lookup("never-seen-name-7f3a"), None);
        assert_eq!(lookup("never-seen-name-7f3a"), None);
        let sym = intern("never-seen-name-7f3a");
        assert_eq!(lookup("never-seen-name-7f3a"), Some(sym));
    }

    #[test]
    fn symbols_are_ordered_by_interning_time() {
        // Fresh names (not used by any other test) intern in call order, not
        // alphabetical order.
        let a = intern("zzz-order-probe-first");
        let b = intern("aaa-order-probe-second");
        assert!(a.0 < b.0);
    }

    #[test]
    fn names_order_alphabetically_regardless_of_interning_time() {
        // Interned in reverse alphabetical order on purpose.
        let z = Name::new("zzz-name-probe");
        let a = Name::new("aaa-name-probe");
        assert!(a < z, "Name orders by string, not by interning time");
        assert_eq!(a, Name::new("aaa-name-probe"));
        assert_ne!(a, z);
        assert_eq!(a, "aaa-name-probe");
        assert_eq!("aaa-name-probe", a);
        assert_eq!(a.to_string(), "aaa-name-probe");
        // Deref: &Name coerces to &str.
        fn takes_str(s: &str) -> usize {
            s.len()
        }
        assert_eq!(takes_str(&a), 14);
    }

    #[test]
    fn names_collate_like_strings_in_btreemaps() {
        use std::collections::BTreeSet;
        let raw = ["hub.net", "a.com", "manager.org", "b.com"];
        let strings: Vec<String> = {
            let set: BTreeSet<String> = raw.iter().map(|s| s.to_string()).collect();
            set.into_iter().collect()
        };
        let names: Vec<String> = {
            let set: BTreeSet<Name> = raw.iter().map(|s| Name::new(s)).collect();
            set.into_iter().map(String::from).collect()
        };
        assert_eq!(strings, names);
    }
}
