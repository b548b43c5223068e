// Fixture: `consumed` is called from trip.rs, so it has a consumer. The
// re-export below and the doc mention of [`orphan`] do not consume
// `orphan`, and a `pub fn` inside `#[cfg(test)]` is never collected.
pub use crate::trip::{
    orphan,
};

/// Returns one; see also [`orphan`].
pub fn consumed() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {}
}
