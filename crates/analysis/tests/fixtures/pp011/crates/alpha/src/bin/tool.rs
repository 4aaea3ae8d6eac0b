fn main() {
    println!("{}", alpha::by_bin());
}
