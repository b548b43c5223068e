// Fixture: `orphan` is public, but the only other file naming it does so
// in a `pub use` re-export, which is not a consumer — `pub-consumer` must
// trip on it.
pub fn orphan() -> u32 {
    7
}

fn uses_the_clean_fixture() -> u32 {
    consumed() + 1
}
