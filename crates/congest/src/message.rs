//! Messages and bandwidth accounting.
//!
//! In CONGEST a message is `O(log n)` bits. We model one *word* as a
//! `u64` — enough to hold an id, a weight (`<= poly(n)`), or a small
//! tagged value — and allow a small constant number of words per edge per
//! direction per round ([`DEFAULT_BANDWIDTH`]). Protocols that need
//! `O(log^2 n)`-bit messages (e.g. light-edge lists) must spread them
//! over multiple rounds or multiple messages, exactly as in the model.
//!
//! Payloads are stored in a [`WordVec`]: up to [`WordVec::INLINE`] words
//! live inline in the message itself, so under the default bandwidth
//! budget constructing, cloning, and delivering a message never touches
//! the heap. Longer payloads (protocols that raise the bandwidth) spill
//! to a heap vector transparently.

use std::fmt;
use std::ops::Deref;

/// One `O(log n)`-bit unit of communication.
pub type Word = u64;

/// Number of words each vertex may push over each incident edge, per
/// direction, per round. Kept small so congestion violations surface.
pub const DEFAULT_BANDWIDTH: usize = 4;

/// A short word sequence with inline storage for small payloads.
///
/// Payloads of up to [`WordVec::INLINE`] words — every message the
/// existing protocols send under the default budget — are stored in
/// place; `clone` is then a plain memcpy and the round engine moves
/// messages between buffers without allocating. The inline capacity is
/// deliberately small (it is the dominant term of a delivery tuple's
/// size, and round delivery is memory-bound at `10^5` vertices); longer
/// payloads spill to a boxed slice.
#[derive(Clone, Debug)]
pub enum WordVec {
    /// At most [`WordVec::INLINE`] words, stored in place.
    Inline {
        /// Number of words in use.
        len: u8,
        /// Backing array; only `words[..len]` is meaningful.
        words: [Word; WordVec::INLINE],
    },
    /// More than [`WordVec::INLINE`] words, on the heap.
    Spilled(Box<[Word]>),
}

impl WordVec {
    /// Words that fit without heap allocation.
    pub const INLINE: usize = 2;

    /// Builds from a slice, inline when it fits.
    pub fn from_slice(words: &[Word]) -> Self {
        if words.len() <= Self::INLINE {
            let mut inline = [0; Self::INLINE];
            inline[..words.len()].copy_from_slice(words);
            WordVec::Inline { len: words.len() as u8, words: inline }
        } else {
            WordVec::Spilled(words.into())
        }
    }

    /// The words as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Word] {
        match self {
            WordVec::Inline { len, words } => &words[..*len as usize],
            WordVec::Spilled(v) => v,
        }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            WordVec::Inline { len, .. } => *len as usize,
            WordVec::Spilled(v) => v.len(),
        }
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for WordVec {
    type Target = [Word];

    #[inline]
    fn deref(&self) -> &[Word] {
        self.as_slice()
    }
}

impl PartialEq for WordVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WordVec {}

impl<'a> IntoIterator for &'a WordVec {
    type Item = &'a Word;
    type IntoIter = std::slice::Iter<'a, Word>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A message: a short sequence of words plus a protocol-defined tag.
#[derive(Clone, PartialEq, Eq)]
pub struct Message {
    /// Protocol-defined discriminant.
    pub tag: u8,
    /// Payload words; the bandwidth budget counts `1 + words.len()`.
    pub words: WordVec,
}

impl Message {
    /// Creates a message with the given tag and payload. Payloads of up
    /// to [`WordVec::INLINE`] words are stored inline (no allocation).
    pub fn new(tag: u8, words: impl AsRef<[Word]>) -> Self {
        Message { tag, words: WordVec::from_slice(words.as_ref()) }
    }

    /// A tag-only message (one word of bandwidth).
    pub fn signal(tag: u8) -> Self {
        Message { tag, words: WordVec::from_slice(&[]) }
    }

    /// Bandwidth cost in words (tag counts as part of the first word).
    pub fn cost(&self) -> usize {
        1 + self.words.len()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message {{ tag: {}, words: {:?} }}",
            self.tag,
            self.words.as_slice()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_counts_tag() {
        assert_eq!(Message::signal(3).cost(), 1);
        assert_eq!(Message::new(1, [10, 20]).cost(), 3);
    }

    #[test]
    fn small_payloads_are_inline() {
        let m = Message::new(2, [7, 8]);
        assert!(matches!(m.words, WordVec::Inline { .. }));
        assert_eq!(m.words.as_slice(), &[7, 8]);
        assert_eq!(m.words[0], 7);
        assert_eq!(m.words.len(), 2);
        assert!(!m.words.is_empty());
    }

    #[test]
    fn long_payloads_spill() {
        let payload: Vec<Word> = (0..10).collect();
        let m = Message::new(5, &payload);
        assert!(matches!(m.words, WordVec::Spilled(_)));
        assert_eq!(m.words.as_slice(), payload.as_slice());
        assert_eq!(m.cost(), 11);
    }

    #[test]
    fn delivery_tuples_stay_compact() {
        // The round engine is memory-bound on delivery traffic at
        // 10^5 vertices; keep the in-flight tuple within 40 bytes (its
        // size before the inline-payload representation).
        assert!(std::mem::size_of::<Message>() <= 32);
        assert!(std::mem::size_of::<(u32, u32, Message)>() <= 40);
    }

    #[test]
    fn equality_is_by_contents() {
        // An inline and a spilled WordVec never hold the same words (the
        // constructor is canonical), but equality must still be by value.
        assert_eq!(Message::new(1, [4, 5]), Message::new(1, vec![4, 5]));
        assert_ne!(Message::new(1, [4, 5]), Message::new(2, [4, 5]));
        assert_ne!(Message::new(1, [4, 5]), Message::new(1, [4, 6]));
        let dbg = format!("{:?}", Message::new(1, [4, 5]));
        assert!(dbg.contains("[4, 5]"), "{dbg}");
    }

    #[test]
    fn wordvec_iterates() {
        let m = Message::new(0, [1, 2, 3]);
        let total: Word = m.words.into_iter().sum();
        assert_eq!(total, 6);
    }
}
