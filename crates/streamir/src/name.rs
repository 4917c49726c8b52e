//! Names of declared variables and internal channels.
//!
//! The compiler copies declarations whenever it stages, fuses or merges an
//! actor, and it declares a temporary for every hoisted tape read and
//! permutation round. A [`Name`] makes both cheap: a source name is a
//! string literal or one shared string, so a copy copies a pointer or
//! bumps a reference count, and a generated temporary (`__t3`, `__ld1_7`)
//! is a stem and its numbers, written out only when the name is read.

use std::fmt;
use std::sync::Arc;

/// The most numbers a generated name carries (`__perm_r<round>_<index>_<n>`).
const MAX_NUMBERS: usize = 3;

/// The name of a variable or channel: a source name (a literal, or any
/// other string shared behind one `Arc`), or a generated one rendered on
/// demand. `Display` and `Debug` read exactly as the `String` it stands
/// for, and two names are equal when their text is.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
    Numbered {
        stem: &'static str,
        numbers: [usize; MAX_NUMBERS],
        len: u8,
    },
}

/// The name `stem` followed by `numbers` in decimal, separated by `_`
/// (`numbered("__ld", &[1, 7])` reads `__ld1_7`), built without
/// allocating.
///
/// # Panics
/// Panics if there are more than three numbers.
pub fn numbered(stem: &'static str, numbers: &[usize]) -> Name {
    assert!(
        numbers.len() <= MAX_NUMBERS,
        "a generated name carries at most {MAX_NUMBERS} numbers"
    );
    let mut stored = [0; MAX_NUMBERS];
    stored[..numbers.len()].copy_from_slice(numbers);
    Name(Repr::Numbered {
        stem,
        numbers: stored,
        len: numbers.len() as u8,
    })
}

impl Name {
    /// Write the name's text to `out`.
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.0 {
            Repr::Static(s) => out.write_str(s),
            Repr::Shared(s) => out.write_str(s),
            Repr::Numbered { stem, numbers, len } => {
                out.write_str(stem)?;
                for (i, n) in numbers[..usize::from(*len)].iter().enumerate() {
                    if i > 0 {
                        out.write_char('_')?;
                    }
                    write!(out, "{n}")?;
                }
                Ok(())
            }
        }
    }

    /// The name's text, written out.
    fn text(&self) -> String {
        let mut text = String::new();
        self.write_to(&mut text).expect("writing to a String");
        text
    }

    /// The name's text, when it is stored whole.
    fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Repr::Static(s) => Some(s),
            Repr::Shared(s) => Some(s),
            Repr::Numbered { .. } => None,
        }
    }

    /// Does the name's text equal `text`?
    fn reads(&self, text: &str) -> bool {
        if let Some(s) = self.as_str() {
            return s == text;
        }
        /// Consumes the text while what is written matches its front.
        struct Match<'a>(&'a str);
        impl fmt::Write for Match<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut m = Match(text);
        self.write_to(&mut m).is_ok() && m.0.is_empty()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_str() {
            Some(s) => f.pad(s),
            None if f.width().is_none() && f.precision().is_none() => self.write_to(f),
            None => f.pad(&self.text()),
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_str() {
            Some(s) => fmt::Debug::fmt(s, f),
            None => fmt::Debug::fmt(self.text().as_str(), f),
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        if let Some(a) = self.as_str() {
            return other.reads(a);
        }
        if let Some(b) = other.as_str() {
            return self.reads(b);
        }
        match (&self.0, &other.0) {
            (
                Repr::Numbered { stem, numbers, len },
                Repr::Numbered {
                    stem: stem2,
                    numbers: numbers2,
                    len: len2,
                },
            ) if (stem, len) == (stem2, len2) => numbers == numbers2,
            _ => self.reads(&other.text()),
        }
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.reads(other)
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.reads(other)
    }
}

/// A string literal is kept as it is: no copy, no allocation.
impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name(Repr::Static(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Repr::Shared(Arc::from(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_share_the_source_text() {
        let a = Name::from(String::from("coef"));
        let b = a.clone();
        match (&a.0, &b.0) {
            (Repr::Shared(x), Repr::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => panic!("a source name is shared"),
        }
        assert_eq!(b, "coef");
        assert_eq!(format!("{b:?}"), "\"coef\"");
    }

    #[test]
    fn equality_is_by_text_whatever_the_form() {
        assert_eq!(numbered("__t", &[12]), Name::from("__t12"));
        assert_eq!(Name::from("__t12"), numbered("__t", &[12]));
        assert_eq!(Name::from(String::from("__t12")), Name::from("__t12"));
        assert_eq!(Name::from("x"), Name::from(String::from("x")));
        assert_eq!(numbered("__t1", &[2]), numbered("__t", &[12]));
        assert_ne!(numbered("__t", &[1, 2]), numbered("__t", &[12]));
        assert_ne!(numbered("__t", &[1]), "__t");
        assert_ne!(numbered("__t", &[1]), "__t10");
        assert_ne!(Name::from("a\"b"), "a");
        assert_eq!(format!("{:?}", Name::from("a\"b")), format!("{:?}", "a\"b"));
    }

    #[test]
    #[should_panic(expected = "at most 3 numbers")]
    fn four_numbers_are_refused() {
        let _ = numbered("x", &[1, 2, 3, 4]);
    }
}
