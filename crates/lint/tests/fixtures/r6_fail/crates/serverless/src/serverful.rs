//! A deleted module that came back.
pub struct ServerfulDeployment;
