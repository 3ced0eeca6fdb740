//! Offline stand-in for `serde_json`: the entry points type-check and fail
//! with a typed error at run time. The benchmark configures the program
//! through its Rust API and never parses or prints JSON through it.

use std::fmt;

#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json stand-in (offline benchmark build): {} is not available", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error("from_str"))
}
