//! The Hive metastore: databases, table definitions, and warehouse layout.
//!
//! Hive identifiers are **case-insensitive**: the metastore stores table,
//! column, and struct-field names in lowercase. That is correct per Hive's
//! specification — and the downstream half of the case-sensitivity
//! discrepancies (HIVE-26533, SPARK-40409, D14), because Spark's native
//! schemas are case-*sensitive*.

use crate::error::HiveError;
use crate::types::HiveType;
use csi_core::boundary::{BoundaryCall, CrossingContext};
use csi_core::fault::Channel;
use minihdfs::{HdfsPath, MiniHdfs};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::Arc;

/// The warehouse file system shared between Hive and its upstreams.
pub type SharedFs = Arc<Mutex<MiniHdfs>>;

/// Storage format of a table.
///
/// The serializer is fixed **when the table is created** and cannot be
/// changed afterwards — the property behind the "exposing internal
/// configurations of the downstream" problem class of Section 8.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageFormat {
    /// ORC (the default).
    Orc,
    /// Parquet.
    Parquet,
    /// Avro.
    Avro,
}

impl StorageFormat {
    /// All formats, in the paper's order.
    pub const ALL: [StorageFormat; 3] = [
        StorageFormat::Orc,
        StorageFormat::Parquet,
        StorageFormat::Avro,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StorageFormat::Orc => "ORC",
            StorageFormat::Parquet => "PARQUET",
            StorageFormat::Avro => "AVRO",
        }
    }

    /// Parses a `STORED AS` clause; `None` selects the default (ORC).
    pub fn from_stored_as(s: Option<&str>) -> Result<StorageFormat, HiveError> {
        let Some(name) = s else {
            return Ok(StorageFormat::Orc);
        };
        StorageFormat::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| HiveError::UnsupportedType {
                ty: format!("storage format {}", name.to_ascii_uppercase()),
            })
    }

    /// File extension used in the warehouse.
    pub fn extension(self) -> &'static str {
        match self {
            StorageFormat::Orc => "orc",
            StorageFormat::Parquet => "parquet",
            StorageFormat::Avro => "avro",
        }
    }
}

/// A column definition as stored by the metastore (lowercase name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Lowercase column name.
    pub name: String,
    /// Column type.
    pub hive_type: HiveType,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Lowercase table name.
    pub name: String,
    /// Columns, in order.
    pub columns: Vec<ColumnDef>,
    /// Storage format, fixed at creation.
    pub format: StorageFormat,
    /// Warehouse directory of the table's data files.
    pub location: HdfsPath,
    /// Free-form table properties.
    pub properties: BTreeMap<String, String>,
}

impl TableDef {
    /// Case-insensitive column lookup; returns the column index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }
}

/// Hive's identifier fold, copying only a name that has an upper-case
/// byte to fold.
fn fold(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The metastore. Definitions are shared out as [`Arc`]s: a statement
/// holds the one it looked up without copying it, and an `ALTER` copies
/// on write only while some statement still does.
#[derive(Debug)]
pub struct Metastore {
    databases: BTreeMap<String, BTreeMap<String, Arc<TableDef>>>,
    warehouse_root: HdfsPath,
    next_part: u64,
    crossing: Option<CrossingContext>,
}

impl Default for Metastore {
    fn default() -> Metastore {
        Metastore::new()
    }
}

impl Metastore {
    /// Creates a metastore with a `default` database rooted at
    /// `/user/hive/warehouse`.
    pub fn new() -> Metastore {
        let mut databases = BTreeMap::new();
        databases.insert("default".to_string(), BTreeMap::new());
        Metastore {
            databases,
            warehouse_root: HdfsPath::parse("/user/hive/warehouse").expect("static path"),
            next_part: 0,
            crossing: None,
        }
    }

    /// Attaches the deployment's crossing context; every metastore RPC
    /// entry point crosses the [`Channel::Metastore`] boundary through it.
    pub fn set_crossing(&mut self, crossing: CrossingContext) {
        self.crossing = Some(crossing);
    }

    /// The metastore-RPC boundary crossing at the entry of `op`.
    fn cross(&self, op: &'static str, payload: fmt::Arguments<'_>) -> Result<(), HiveError> {
        match &self.crossing {
            Some(ctx) => {
                ctx.cross(BoundaryCall::new(Channel::Metastore, op).with_payload_fmt(payload))
            }
            None => Ok(()),
        }
    }

    /// The warehouse root directory.
    pub fn warehouse_root(&self) -> &HdfsPath {
        &self.warehouse_root
    }

    /// Creates a database. Idempotent.
    pub fn create_database(&mut self, name: &str) {
        self.databases.entry(name.to_ascii_lowercase()).or_default();
    }

    /// Creates a table in a database.
    ///
    /// Table and column names are lower-cased (silently — Hive's documented
    /// case-insensitivity). Duplicate names, after folding, collide.
    pub fn create_table(
        &mut self,
        db: &str,
        name: &str,
        columns: Vec<(String, HiveType)>,
        format: StorageFormat,
        if_not_exists: bool,
    ) -> Result<&Arc<TableDef>, HiveError> {
        self.cross("create_table", format_args!("{db}.{name}"))?;
        let tables = self
            .databases
            .get_mut(&*fold(db))
            .ok_or_else(|| HiveError::UnknownDatabase(db.to_string()))?;
        match tables.entry(fold(name).into_owned()) {
            Entry::Occupied(existing) if if_not_exists => Ok(existing.into_mut()),
            Entry::Occupied(existing) => Err(HiveError::TableExists(existing.key().clone())),
            Entry::Vacant(slot) => {
                let def = TableDef {
                    name: slot.key().clone(),
                    columns: columns
                        .into_iter()
                        .map(|(mut name, hive_type)| {
                            name.make_ascii_lowercase();
                            ColumnDef { name, hive_type }
                        })
                        .collect(),
                    format,
                    location: self.warehouse_root.join(slot.key()),
                    properties: BTreeMap::new(),
                };
                Ok(slot.insert(Arc::new(def)))
            }
        }
    }

    /// Looks a table up, case-insensitively.
    pub fn get_table(&self, db: &str, name: &str) -> Result<&Arc<TableDef>, HiveError> {
        self.cross("get_table", format_args!("{db}.{name}"))?;
        self.databases
            .get(&*fold(db))
            .ok_or_else(|| HiveError::UnknownDatabase(db.to_string()))?
            .get(&*fold(name))
            .ok_or_else(|| HiveError::UnknownTable(name.to_string()))
    }

    /// The definition of an existing table, for an `ALTER` to edit.
    fn table_mut(&mut self, db: &str, name: &str) -> Result<&mut TableDef, HiveError> {
        self.databases
            .get_mut(&*fold(db))
            .ok_or_else(|| HiveError::UnknownDatabase(db.to_string()))?
            .get_mut(&*fold(name))
            .map(Arc::make_mut)
            .ok_or_else(|| HiveError::UnknownTable(name.to_string()))
    }

    /// Sets a table property.
    pub fn set_table_property(
        &mut self,
        db: &str,
        name: &str,
        key: &str,
        value: &str,
    ) -> Result<(), HiveError> {
        self.cross("set_table_property", format_args!("{db}.{name}#{key}"))?;
        let t = self.table_mut(db, name)?;
        t.properties.insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Appends a column to an existing table (schema evolution, as
    /// `ALTER TABLE ... ADD COLUMNS` does).
    ///
    /// Old data files simply lack the column; readers fill it with NULL.
    /// Note that this changes only the *Hive* schema — any case-preserving
    /// schema an upstream cached in table properties goes stale, the
    /// evolution hazard of SPARK-21841-style issues.
    pub fn add_column(
        &mut self,
        db: &str,
        table: &str,
        name: &str,
        hive_type: HiveType,
    ) -> Result<(), HiveError> {
        self.cross("add_column", format_args!("{db}.{table}.{name}"))?;
        let t = self.table_mut(db, table)?;
        let lower = name.to_ascii_lowercase();
        if t.columns.iter().any(|c| c.name == lower) {
            return Err(HiveError::TableExists(format!("{table}.{lower}")));
        }
        t.columns.push(ColumnDef {
            name: lower,
            hive_type,
        });
        Ok(())
    }

    /// Drops a table (and its warehouse files).
    pub fn drop_table(
        &mut self,
        db: &str,
        name: &str,
        if_exists: bool,
        fs: &mut MiniHdfs,
    ) -> Result<(), HiveError> {
        self.cross("drop_table", format_args!("{db}.{name}"))?;
        let tables = self
            .databases
            .get_mut(&*fold(db))
            .ok_or_else(|| HiveError::UnknownDatabase(db.to_string()))?;
        match tables.remove(&*fold(name)) {
            Some(def) => fs
                .delete_if_exists(&def.location, true)
                .map(drop)
                .map_err(|e| HiveError::Storage(e.to_string())),
            None if if_exists => Ok(()),
            None => Err(HiveError::UnknownTable(name.to_string())),
        }
    }

    /// Lists table names in a database.
    pub fn list_tables(&self, db: &str) -> Result<Vec<&str>, HiveError> {
        self.cross("list_tables", format_args!("{db}"))?;
        Ok(self
            .databases
            .get(&*fold(db))
            .ok_or_else(|| HiveError::UnknownDatabase(db.to_string()))?
            .keys()
            .map(String::as_str)
            .collect())
    }

    /// Allocates the path of the next data file for a table.
    pub fn next_part_path(&mut self, table: &TableDef) -> HdfsPath {
        let part = self.next_part;
        self.next_part += 1;
        table
            .location
            .join_fmt(format_args!("part-{part:05}.{}", table.format.extension()))
    }

    /// Lists a table's data files, oldest first: part names number them
    /// in order, and one directory's listing is already in path order.
    pub fn table_data_files(
        &self,
        table: &TableDef,
        fs: &MiniHdfs,
    ) -> Result<Vec<HdfsPath>, HiveError> {
        self.cross("table_data_files", format_args!("{}", table.location))?;
        fs.list_files(&table.location)
            .map_err(|e| HiveError::Storage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_lowercases_identifiers() {
        let mut ms = Metastore::new();
        let def = ms
            .create_table(
                "default",
                "MyTable",
                vec![("CamelCol".to_string(), HiveType::Int)],
                StorageFormat::Orc,
                false,
            )
            .unwrap();
        assert_eq!(def.name, "mytable");
        assert_eq!(def.columns[0].name, "camelcol");
        // Lookup is case-insensitive.
        assert!(ms.get_table("DEFAULT", "MYTABLE").is_ok());
        let t = ms.get_table("default", "mytable").unwrap();
        assert_eq!(t.column_index("CAMELCOL"), Some(0));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn duplicate_tables_collide_after_case_folding() {
        let mut ms = Metastore::new();
        ms.create_table("default", "T", vec![], StorageFormat::Orc, false)
            .unwrap();
        assert!(matches!(
            ms.create_table("default", "t", vec![], StorageFormat::Orc, false),
            Err(HiveError::TableExists(_))
        ));
        // IF NOT EXISTS suppresses the error.
        assert!(ms
            .create_table("default", "t", vec![], StorageFormat::Orc, true)
            .is_ok());
    }

    #[test]
    fn drop_table_removes_warehouse_files() {
        let mut ms = Metastore::new();
        let mut fs = MiniHdfs::with_datanodes(1);
        let def = ms
            .create_table("default", "t", vec![], StorageFormat::Orc, false)
            .unwrap()
            .clone();
        let part = ms.next_part_path(&def);
        fs.create(&part, b"data").unwrap();
        assert_eq!(ms.table_data_files(&def, &fs).unwrap().len(), 1);
        ms.drop_table("default", "t", false, &mut fs).unwrap();
        assert!(!fs.exists(&def.location));
        assert!(matches!(
            ms.drop_table("default", "t", false, &mut fs),
            Err(HiveError::UnknownTable(_))
        ));
        ms.drop_table("default", "t", true, &mut fs).unwrap();
    }

    #[test]
    fn add_column_evolves_the_schema() {
        let mut ms = Metastore::new();
        ms.create_table(
            "default",
            "t",
            vec![("a".to_string(), HiveType::Int)],
            StorageFormat::Orc,
            false,
        )
        .unwrap();
        // A statement's handle is a snapshot: the ALTER copies on write.
        let held = ms.get_table("default", "t").unwrap().clone();
        ms.add_column("default", "t", "NewCol", HiveType::Str)
            .unwrap();
        assert_eq!(held.columns.len(), 1);
        let def = ms.get_table("default", "t").unwrap();
        assert_eq!(def.columns.len(), 2);
        assert_eq!(def.columns[1].name, "newcol"); // Lowercased.
                                                   // Duplicate (after folding) is rejected.
        assert!(ms
            .add_column("default", "t", "NEWCOL", HiveType::Int)
            .is_err());
        assert!(ms
            .add_column("default", "nope", "x", HiveType::Int)
            .is_err());
    }

    #[test]
    fn storage_format_parsing() {
        assert_eq!(
            StorageFormat::from_stored_as(None).unwrap(),
            StorageFormat::Orc
        );
        assert_eq!(
            StorageFormat::from_stored_as(Some("avro")).unwrap(),
            StorageFormat::Avro
        );
        assert!(StorageFormat::from_stored_as(Some("CSV")).is_err());
    }

    #[test]
    fn part_paths_are_unique_and_extension_typed() {
        let mut ms = Metastore::new();
        let def = ms
            .create_table("default", "t", vec![], StorageFormat::Parquet, false)
            .unwrap()
            .clone();
        let a = ms.next_part_path(&def);
        let b = ms.next_part_path(&def);
        assert_ne!(a, b);
        assert!(a.to_string().ends_with(".parquet"));
    }

    #[test]
    fn unknown_database_errors() {
        let mut ms = Metastore::new();
        assert!(matches!(
            ms.create_table("nope", "t", vec![], StorageFormat::Orc, false),
            Err(HiveError::UnknownDatabase(_))
        ));
        assert!(ms.get_table("nope", "t").is_err());
        assert!(ms.list_tables("nope").is_err());
        ms.create_database("Analytics");
        assert!(ms.list_tables("analytics").unwrap().is_empty());
    }
}
