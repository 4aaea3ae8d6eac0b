/// Re-exported at the crate root, named by nobody.
pub struct Reexported;
