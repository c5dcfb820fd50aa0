//! Offline stand-in for `serde_derive`. Nothing in the repository's library
//! code serializes through serde (reports go through `painter_obs::json`), so
//! the derives accept their input, including `#[serde(...)]` attributes, and
//! expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
