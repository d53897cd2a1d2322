//! Token definitions for the minicuda lexer.

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Tok {
    // Literals and identifiers
    Int(i64),
    Float(f64),
    Ident(String),

    // Keywords
    KwGlobal,      // __global__
    KwShared,      // __shared__
    KwRestrict,    // __restrict__
    KwSyncthreads, // __syncthreads
    KwVoid,
    KwConst,
    KwDouble,
    KwFloat,
    KwInt,
    KwIf,
    KwElse,
    KwFor,
    KwReturn,
    KwDim3,
    KwHost, // the identifier `host` in `void host()`

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Dot,
    Question,
    Colon,

    // Operators
    Assign,  // =
    PlusEq,  // +=
    MinusEq, // -=
    StarEq,  // *=
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,   // ++
    MinusMinus, // --
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Not,
    LaunchOpen,  // <<<
    LaunchClose, // >>>

    /// End of input.
    Eof,
}

impl Tok {
    /// A short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("float `{v}`"),
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Eof => "end of input".to_string(),
            other => format!("{other:?}"),
        }
    }
}

/// A token plus its source span (1-based line/column and width).
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Width of the token in characters (0 for end-of-input).
    pub len: u32,
}
