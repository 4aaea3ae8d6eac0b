#[test]
fn integration_tests_are_not_users() {
    assert_eq!(alpha::only_in_tests(), 3);
    let _ = alpha::Reexported;
    assert_eq!(alpha::held_by_test(), 8);
    // alpha::named_in_a_string() is not a use: comments are masked.
    assert_eq!("named_in_a_string".len(), 17);
}
