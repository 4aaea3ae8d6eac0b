//! PP000 fixture: allow-marker hygiene.

pub fn good() -> u64 {
    // tidy:allow(PP003): fixture demonstrates a justified suppression
    maybe().unwrap()
}

pub fn bad() -> u64 {
    // tidy:allow(PP003)
    maybe().unwrap()
}

pub fn idle() -> u64 {
    // tidy:allow(PP003): suppresses nothing, so it is itself a finding
    maybe().unwrap_or(0)
}

fn maybe() -> Option<u64> {
    Some(1)
}
