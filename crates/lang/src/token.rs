//! A small, deterministic tokenizer for queries and trace text.

/// A token: lowercased word, hexadecimal literal or number.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// A lowercased alphabetic word.
    Word(String),
    /// A hexadecimal literal (`0x...`), normalised to lowercase without the
    /// prefix.
    Hex(u64),
    /// A decimal number.
    Number(u64),
}

impl Token {
    /// The token's textual form (words as-is, numbers re-rendered).
    pub fn text(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Hex(h) => format!("0x{h:x}"),
            Token::Number(n) => n.to_string(),
        }
    }
}

/// Tokenizes `input` into words, hex literals and numbers.
///
/// ```rust
/// use cachemind_lang::token::{tokenize, Token};
///
/// let toks = tokenize("Does PC 0x401dc9 miss on lbm?");
/// assert!(toks.contains(&Token::Hex(0x401dc9)));
/// assert!(toks.contains(&Token::Word("lbm".into())));
/// ```
pub fn tokenize(input: &str) -> Vec<Token> {
    let mut out = Vec::new();
    for_each_word(input, |word| {
        // The one allocation per word.
        let lower = word.to_lowercase();
        out.push(literal(&lower).unwrap_or(Token::Word(lower)));
    });
    out
}

/// Calls `f` with each word of `input` in order, as written: each maximal
/// run of alphanumeric characters and `_`. `x` and `X` are alphanumeric,
/// so a `0x` prefix stays glued to its digits.
pub(crate) fn for_each_word<'a>(input: &'a str, mut f: impl FnMut(&'a str)) {
    let mut start = None;
    for (i, c) in input.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            f(&input[s..i]);
        }
    }
    if let Some(s) = start {
        f(&input[s..]);
    }
}

/// The literal a lowercased word spells: [`Token::Hex`] for `0x` and hex
/// digits, [`Token::Number`] for decimal digits, each only when it fits
/// in a `u64`; `None` for every other word.
pub(crate) fn literal(lower: &str) -> Option<Token> {
    if let Some(hex) = lower.strip_prefix("0x") {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return Some(Token::Hex(v));
        }
    }
    if lower.bytes().all(|b| b.is_ascii_digit()) {
        return lower.parse().ok().map(Token::Number);
    }
    None
}

/// Whether `haystack` contains `needle`, ignoring ASCII case, without
/// allocating.
///
/// For an ASCII, lowercase `needle` this equals
/// `haystack.to_lowercase().contains(needle)` whenever no needle ends in
/// `i` or holds a `k`: non-ASCII bytes never match an ASCII one, and the
/// only characters that lowercase to text holding an ASCII letter are `İ`
/// (to `i` and a combining dot) and the Kelvin sign `K` (to `k`).
pub fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
    needle.is_empty() || haystack.windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle))
}

/// Extracts every hexadecimal literal from `input`, in order.
pub fn hex_literals(input: &str) -> Vec<u64> {
    tokenize(input)
        .into_iter()
        .filter_map(|t| match t {
            Token::Hex(h) => Some(h),
            _ => None,
        })
        .collect()
}

/// Extracts every plain decimal number from `input`, in order.
pub fn numbers(input: &str) -> Vec<u64> {
    tokenize(input)
        .into_iter()
        .filter_map(|t| match t {
            Token::Number(n) => Some(n),
            _ => None,
        })
        .collect()
}

/// Lowercased word tokens only.
pub fn words(input: &str) -> Vec<String> {
    tokenize(input)
        .into_iter()
        .filter_map(|t| match t {
            Token::Word(w) => Some(w),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_and_words_separate() {
        let toks = tokenize("PC 0x4037ba on mcf with PARROT policy");
        assert_eq!(hex_literals("PC 0x4037ba on mcf"), vec![0x4037ba]);
        assert!(toks.contains(&Token::Word("parrot".into())));
        assert!(toks.contains(&Token::Word("mcf".into())));
    }

    #[test]
    fn numbers_are_parsed() {
        assert_eq!(numbers("top 5 sets out of 2048"), vec![5, 2048]);
    }

    #[test]
    fn punctuation_splits_tokens() {
        let ws = words("Why does Belady outperform LRU?");
        assert_eq!(ws, vec!["why", "does", "belady", "outperform", "lru"]);
    }

    #[test]
    fn tokenize_is_deterministic_and_total() {
        for s in ["", "???", "0x", "0xzz", "x", "___", "a 0x1F b 12"] {
            assert_eq!(tokenize(s), tokenize(s));
        }
        assert_eq!(tokenize("0x1F"), vec![Token::Hex(0x1f)]);
    }

    #[test]
    fn ascii_case_insensitive_contains() {
        assert!(contains_ignore_ascii_case("Estimated IPC?", "ipc"));
        assert!(contains_ignore_ascii_case("abc", ""));
        assert!(!contains_ignore_ascii_case("", "ipc"));
        assert!(!contains_ignore_ascii_case("m\u{130}n", "min"));
        assert!(contains_ignore_ascii_case("Maß: MISS rate", "miss"));
    }
}
