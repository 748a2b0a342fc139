//! Shared kernel-class names.
//!
//! A run has a handful of kernel classes and one span per task, so every
//! span of a class carries the same [`KernelName`]: one immutable string,
//! made once per class and shared by reference count. Cloning a name is
//! an atomic increment, never an allocation, and a span stays 40 bytes.
//! [`NameTable`] makes the one handle per distinct string where names
//! arrive as text (a parsed trace, a caller's owned labels).

use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One kernel class's name: an 8-byte shared handle to an immutable
/// string. It dereferences to `str`; equality, order and hashing are
/// those of the contents, so two handles made apart from the same text
/// compare equal.
#[derive(Clone)]
pub struct KernelName(Arc<Box<str>>);

impl KernelName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `self` and `other` are the same handle (not merely equal
    /// text).
    pub fn ptr_eq(&self, other: &KernelName) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for KernelName {
    /// The empty name, one handle per process.
    fn default() -> Self {
        static EMPTY: OnceLock<KernelName> = OnceLock::new();
        EMPTY.get_or_init(|| KernelName::from("")).clone()
    }
}

impl Deref for KernelName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for KernelName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for KernelName {
    fn from(s: &str) -> Self {
        KernelName(Arc::new(s.into()))
    }
}

impl From<String> for KernelName {
    fn from(s: String) -> Self {
        KernelName(Arc::new(s.into_boxed_str()))
    }
}

impl PartialEq for KernelName {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_str() == other.as_str()
    }
}

impl Eq for KernelName {}

impl PartialEq<str> for KernelName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for KernelName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for KernelName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KernelName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for KernelName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for KernelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for KernelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl Serialize for KernelName {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(s)
    }
}

impl<'de> Deserialize<'de> for KernelName {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        String::deserialize(d).map(KernelName::from)
    }
}

/// One [`KernelName`] per distinct string: what turns names arriving as
/// text into shared handles, each string allocated once.
#[derive(Debug, Default)]
pub struct NameTable {
    names: BTreeSet<KernelName>,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle for `name`, made on its first sight.
    pub fn intern(&mut self, name: &str) -> KernelName {
        if let Some(known) = self.names.get(name) {
            return known.clone();
        }
        let made = KernelName::from(name);
        self.names.insert(made.clone());
        made
    }

    /// [`NameTable::intern`] for an owned string, which becomes the
    /// handle's text on its first sight (and is dropped otherwise).
    pub fn intern_owned(&mut self, name: String) -> KernelName {
        if let Some(known) = self.names.get(name.as_str()) {
            return known.clone();
        }
        let made = KernelName::from(name);
        self.names.insert(made.clone());
        made
    }

    /// Replace `name` by the table's handle for its text.
    pub fn share(&mut self, name: &mut KernelName) {
        match self.names.get(name.as_str()) {
            Some(known) => *name = known.clone(),
            None => {
                self.names.insert(name.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_name_is_one_pointer_wide() {
        assert_eq!(std::mem::size_of::<KernelName>(), 8);
        assert_eq!(std::mem::size_of::<Option<KernelName>>(), 8);
    }

    #[test]
    fn names_compare_order_and_hash_by_their_text() {
        let (a, b) = (
            KernelName::from("dgemm"),
            KernelName::from("dgemm".to_string()),
        );
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of("dgemm"));
        assert_eq!(a, "dgemm");
        let mut sorted = [KernelName::from("dpotrf"), a.clone()];
        sorted.sort();
        assert_eq!(sorted, ["dgemm", "dpotrf"]);
        assert_eq!(format!("{a:?} {a}"), "\"dgemm\" dgemm");
        assert_eq!(&*KernelName::default(), "");
        assert!(KernelName::default().ptr_eq(&KernelName::default()));
    }

    #[test]
    fn a_table_makes_one_handle_per_string() {
        let mut t = NameTable::new();
        let a = t.intern("dtrsm");
        let b = t.intern_owned("dtrsm".to_string());
        assert!(a.ptr_eq(&b));
        let mut c = KernelName::from("dtrsm");
        t.share(&mut c);
        assert!(c.ptr_eq(&a));
        assert!(!t.intern("dsyrk").ptr_eq(&a));
    }
}
