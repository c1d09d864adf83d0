//! Regenerates **Table I** (server-side data): one user with the paper's
//! three example accounts, printed in the table's layout. The row is read
//! from the server's data at rest, the join of the user's row and the
//! user's account rows, as a breach would find it.

use amnesia_core::{Domain, PasswordPolicy, Username};
use amnesia_system::{AmnesiaSystem, SystemConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut system = AmnesiaSystem::new(SystemConfig::default().with_seed(0xA11CE));
    system.add_browser("browser");
    system.add_phone("phone", 1);
    system.setup_user("alice", "master password", "browser", "phone")?;
    for (u, d) in [
        ("Alice", "mail.google.com"),
        ("Alice2", "www.facebook.com"),
        ("Bob", "www.yahoo.com"),
    ] {
        system.add_account(
            "browser",
            Username::new(u)?,
            Domain::new(d)?,
            PasswordPolicy::default(),
        )?;
    }
    let record = system
        .server()
        .export_data_at_rest_for_attack_model()
        .into_iter()
        .find(|record| record.user_id == "alice")
        .ok_or("alice has no row at rest")?;
    println!("TABLE I: Server Side Data");
    println!("{}", record.render_table_i());
    Ok(())
}
