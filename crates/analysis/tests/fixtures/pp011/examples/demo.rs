fn main() {
    println!("{} {}", alpha::by_example(), beta::beta_entry());
}
