// Read for uses, never linted: this `unwrap` is no finding.
fn main() {
    let n: u32 = "5".parse().unwrap();
    assert_eq!(alpha::by_benchmark(), n);
}
