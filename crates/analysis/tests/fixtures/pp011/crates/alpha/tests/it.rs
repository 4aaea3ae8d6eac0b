#[test]
fn integration_tests_are_not_users() {
    assert_eq!(alpha::only_in_tests(), 3);
    let _ = alpha::Reexported;
}
