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
    let mut buf = String::new();
    let flush = |buf: &mut String, out: &mut Vec<Token>| {
        if buf.is_empty() {
            return;
        }
        // The one allocation per word; `buf` keeps its capacity.
        let lower = buf.to_lowercase();
        buf.clear();
        if let Some(hex) = lower.strip_prefix("0x") {
            if let Ok(v) = u64::from_str_radix(hex, 16) {
                out.push(Token::Hex(v));
                return;
            }
        }
        if lower.chars().all(|c| c.is_ascii_digit()) {
            if let Ok(v) = lower.parse() {
                out.push(Token::Number(v));
                return;
            }
        }
        out.push(Token::Word(lower));
    };
    for c in input.chars() {
        if c.is_alphanumeric() || c == '_' {
            buf.push(c);
            // Keep `0x` prefixes glued to their digits.
            continue;
        }
        if c == 'x' || c == 'X' {
            buf.push(c);
            continue;
        }
        let _ = c;
        flush(&mut buf, &mut out);
    }
    flush(&mut buf, &mut out);
    out
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
}
