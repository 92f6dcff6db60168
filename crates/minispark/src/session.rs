//! The SparkSession: shared catalog access and table I/O.
//!
//! A session talks to the same metastore and warehouse filesystem as
//! `minihive`, through Spark's own connector stack. Schema resolution
//! follows Spark's real behavior: tables created through the DataFrame
//! writer carry a case-preserving copy of the schema in the
//! `spark.sql.sources.schema` table property (for ORC and Parquet — the
//! inference mode "only works with ORC and Parquet, but not Avro"); when
//! the property is absent Spark **falls back to the Hive schema** and logs
//! the "not case preserving" warning quoted in Section 8.2.

use crate::config::SparkConfig;
use crate::error::SparkError;
use crate::serde_layer;
use crate::types::{schema_from_property, schema_to_property};
use csi_core::column::ValueColumn;
use csi_core::diag::DiagHandle;
use csi_core::value::{DataType, StructField};
use minihive::hiveql::SharedMetastore;
use minihive::metastore::{SharedFs, StorageFormat, TableDef};
use minihive::HiveType;
use std::{borrow::Borrow, sync::Arc};

/// Table property under which Spark stores its case-preserving schema.
pub const SPARK_SCHEMA_PROPERTY: &str = "spark.sql.sources.schema";

/// Which interface created a table (their DDL conversions differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DdlPath {
    /// `CREATE TABLE` through SparkSQL's Hive DDL layer.
    SparkSql,
    /// `DataFrame.saveAsTable`.
    DataFrame,
}

/// A Spark session bound to a shared metastore and warehouse.
///
/// # Examples
///
/// ```
/// use csi_core::diag::DiagSink;
/// use minihdfs::MiniHdfs;
/// use minihive::metastore::Metastore;
/// use minispark::SparkSession;
/// use parking_lot::Mutex;
/// use std::sync::Arc;
///
/// let sink = DiagSink::new();
/// let spark = SparkSession::connect(
///     Arc::new(Mutex::new(Metastore::new())),
///     Arc::new(Mutex::new(MiniHdfs::with_datanodes(3))),
///     sink.handle("minispark"),
/// );
/// spark.sql("CREATE TABLE t (a INT)").unwrap();
/// spark.sql("INSERT INTO t VALUES (41), (42)").unwrap();
/// let r = spark.sql("SELECT a FROM t WHERE a >= 42").unwrap();
/// assert_eq!(r.rows.len(), 1);
/// ```
#[derive(Clone)]
pub struct SparkSession {
    /// The session configuration.
    pub config: SparkConfig,
    metastore: SharedMetastore,
    fs: SharedFs,
    diag: DiagHandle,
}

impl SparkSession {
    /// Connects a session to an existing metastore and warehouse.
    pub fn connect(metastore: SharedMetastore, fs: SharedFs, diag: DiagHandle) -> SparkSession {
        SparkSession {
            config: SparkConfig::new(),
            metastore,
            fs,
            diag,
        }
    }

    /// The diagnostics handle.
    pub fn diag(&self) -> &DiagHandle {
        &self.diag
    }

    /// The shared metastore.
    pub fn metastore(&self) -> &SharedMetastore {
        &self.metastore
    }

    /// Looks up a table definition, shared with the metastore.
    pub(crate) fn table_def(&self, name: &str) -> Result<Arc<TableDef>, SparkError> {
        Ok(self.metastore.lock().get_table("default", name)?.clone())
    }

    /// Creates a Hive-catalog table from a Spark schema.
    ///
    /// The SparkSQL DDL path widens BYTE/SHORT to INT in the Hive schema
    /// and stores no case-preserving property (HIVE-26533 / SPARK-40409 /
    /// D03); the DataFrame path maps types faithfully and saves the
    /// property where the inference mode supports the format.
    pub(crate) fn create_hive_table(
        &self,
        name: &str,
        schema: &[StructField],
        format: StorageFormat,
        path: DdlPath,
        if_not_exists: bool,
    ) -> Result<(), SparkError> {
        let mut hive_columns = Vec::with_capacity(schema.len());
        let mut folded_case = false;
        let mut stored_schema: Vec<StructField> = Vec::with_capacity(schema.len());
        for f in schema {
            let (hive_source_type, stored_type) = self.map_for_ddl(&f.data_type, path)?;
            let hive_type = HiveType::from_data_type(&hive_source_type)?;
            if has_upper(&f.name) {
                folded_case = true;
            }
            hive_columns.push((f.name.clone(), hive_type));
            stored_schema.push(StructField {
                name: f.name.clone(),
                data_type: stored_type,
                nullable: f.nullable,
            });
        }
        let save_property =
            path == DdlPath::DataFrame && self.config.case_preserving_schema_for(format.name());
        if !save_property && (folded_case || schema.iter().any(has_mixed_case_struct)) {
            self.diag.warn(
                "NOT_CASE_PRESERVING",
                format!(
                    "The table schema of {name} is not case preserving; \
                     falling back to the (lowercase) Hive metastore schema on reads"
                ),
            );
        }
        // The metastore guard ends with this block: the lock order is
        // filesystem before metastore, so it must be gone before `mkdirs`.
        // Only the location leaves it — a held definition would make the
        // property write below copy the whole `TableDef`.
        let location = {
            let mut ms = self.metastore.lock();
            let location = ms
                .create_table("default", name, hive_columns, format, if_not_exists)?
                .location
                .clone();
            if save_property {
                ms.set_table_property(
                    "default",
                    name,
                    SPARK_SCHEMA_PROPERTY,
                    &schema_to_property(&stored_schema),
                )?;
            }
            location
        };
        self.fs
            .lock()
            .mkdirs(&location)
            .map_err(|e| SparkError::Connector {
                code: "HDFS",
                message: e.to_string(),
            })
    }

    /// How a Spark type appears in (hive-DDL type, spark-stored type) form.
    fn map_for_ddl(
        &self,
        ty: &DataType,
        path: DdlPath,
    ) -> Result<(DataType, DataType), SparkError> {
        Ok(match ty {
            // SparkSQL's Hive DDL layer widens small integers (D03).
            DataType::Byte | DataType::Short if path == DdlPath::SparkSql => {
                (DataType::Int, DataType::Int)
            }
            DataType::Interval => {
                if self.config.interval_as_string() || path == DdlPath::DataFrame {
                    // Stored as STRING; the schema remembers STRING too.
                    (DataType::String, DataType::String)
                } else {
                    return Err(SparkError::UnsupportedHiveType {
                        ty: "interval".to_string(),
                    });
                }
            }
            other => (other.clone(), other.clone()),
        })
    }

    /// Resolves the schema Spark uses for a table: the case-preserving
    /// property when present, otherwise the Hive schema (with the
    /// documented warning).
    pub(crate) fn resolve_schema(&self, def: &TableDef) -> Vec<StructField> {
        if let Some(raw) = def.properties.get(SPARK_SCHEMA_PROPERTY) {
            if let Some(fields) = schema_from_property(raw) {
                return fields;
            }
        }
        self.diag.warn(
            "NOT_CASE_PRESERVING",
            format!(
                "Reading table {} using the Hive metastore schema, \
                 which is not case preserving",
                def.name
            ),
        );
        def.columns
            .iter()
            .map(|c| StructField::new(c.name.clone(), c.hive_type.to_data_type()))
            .collect()
    }

    /// Appends already-cast column buffers to a table through Spark's
    /// serializers, as one new data file.
    pub fn write_columns(
        &self,
        def: &TableDef,
        schema: &[StructField],
        cols: &[impl Borrow<ValueColumn>],
    ) -> Result<(), SparkError> {
        let bytes = serde_layer::write_columns(def.format, schema, cols, &self.config)?;
        let part = self.metastore.lock().next_part_path(def);
        self.fs
            .lock()
            .create(&part, bytes)
            .map_err(|e| SparkError::Connector {
                code: "HDFS",
                message: e.to_string(),
            })
    }

    /// Reads all rows of a table as column buffers through Spark's
    /// deserializers. Multiple data files concatenate column-wise in path
    /// order.
    pub fn read_columns(
        &self,
        def: &TableDef,
        schema: &[StructField],
    ) -> Result<Vec<ValueColumn>, SparkError> {
        let fs = self.fs.lock();
        let files = self
            .metastore
            .lock()
            .table_data_files(def, &fs)
            .map_err(SparkError::from)?;
        let mut out: Option<Vec<ValueColumn>> = None;
        for path in files {
            let bytes = fs.read(&path).map_err(|e| SparkError::Connector {
                code: "HDFS",
                message: e.to_string(),
            })?;
            let cols = serde_layer::read_columns(def.format, schema, &bytes, &self.config)?;
            match &mut out {
                None => out = Some(cols),
                Some(acc) => {
                    for (a, c) in acc.iter_mut().zip(&cols) {
                        a.extend_from(c);
                    }
                }
            }
        }
        Ok(out.unwrap_or_else(|| {
            schema
                .iter()
                .map(|f| ValueColumn::for_type(&f.data_type))
                .collect()
        }))
    }

    /// Drops a table.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<(), SparkError> {
        let mut fs = self.fs.lock();
        self.metastore
            .lock()
            .drop_table("default", name, if_exists, &mut fs)
            .map_err(SparkError::from)
    }
}

/// Whether Hive's lowercase fold would change `name`.
fn has_upper(name: &str) -> bool {
    name.bytes().any(|b| b.is_ascii_uppercase())
}

fn has_mixed_case_struct(field: &StructField) -> bool {
    fn ty_has(ty: &DataType) -> bool {
        match ty {
            DataType::Struct(fields) => fields
                .iter()
                .any(|f| has_upper(&f.name) || ty_has(&f.data_type)),
            DataType::Array(e) => ty_has(e),
            DataType::Map(k, v) => ty_has(k) || ty_has(v),
            _ => false,
        }
    }
    ty_has(&field.data_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csi_core::diag::DiagSink;
    use csi_core::value::Value;
    use minihdfs::MiniHdfs;
    use minihive::metastore::Metastore;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn session() -> (SparkSession, DiagSink) {
        let sink = DiagSink::new();
        let s = SparkSession::connect(
            Arc::new(Mutex::new(Metastore::new())),
            Arc::new(Mutex::new(MiniHdfs::with_datanodes(3))),
            sink.handle("minispark"),
        );
        (s, sink)
    }

    #[test]
    fn sparksql_ddl_widens_small_ints_and_warns_on_case() {
        let (s, sink) = session();
        let schema = vec![StructField::new("CamelCol", DataType::Byte)];
        s.create_hive_table("t", &schema, StorageFormat::Orc, DdlPath::SparkSql, false)
            .unwrap();
        assert!(sink.drain().iter().any(|d| d.code == "NOT_CASE_PRESERVING"));
        let def = s.table_def("t").unwrap();
        assert_eq!(def.columns[0].name, "camelcol");
        assert_eq!(def.columns[0].hive_type, HiveType::Int); // Widened.
        assert!(!def.properties.contains_key(SPARK_SCHEMA_PROPERTY));
    }

    #[test]
    fn dataframe_ddl_preserves_types_and_saves_property_for_orc() {
        let (s, _) = session();
        let schema = vec![StructField::new("CamelCol", DataType::Byte)];
        s.create_hive_table("t", &schema, StorageFormat::Orc, DdlPath::DataFrame, false)
            .unwrap();
        let def = s.table_def("t").unwrap();
        assert_eq!(def.columns[0].hive_type, HiveType::TinyInt);
        assert!(def.properties.contains_key(SPARK_SCHEMA_PROPERTY));
        let resolved = s.resolve_schema(&def);
        assert_eq!(resolved[0].name, "CamelCol"); // Case survives.
        assert_eq!(resolved[0].data_type, DataType::Byte);
    }

    #[test]
    fn dataframe_avro_tables_get_no_property() {
        let (s, sink) = session();
        let schema = vec![StructField::new("CamelCol", DataType::Byte)];
        s.create_hive_table("t", &schema, StorageFormat::Avro, DdlPath::DataFrame, false)
            .unwrap();
        let def = s.table_def("t").unwrap();
        assert!(!def.properties.contains_key(SPARK_SCHEMA_PROPERTY));
        sink.drain();
        let resolved = s.resolve_schema(&def);
        // Fallback to the lowercase Hive schema, with the warning.
        assert_eq!(resolved[0].name, "camelcol");
        assert!(sink.drain().iter().any(|d| d.code == "NOT_CASE_PRESERVING"));
    }

    #[test]
    fn interval_rejected_by_sparksql_unless_configured() {
        let (mut s, _) = session();
        let schema = vec![StructField::new("i", DataType::Interval)];
        let err = s
            .create_hive_table("t", &schema, StorageFormat::Orc, DdlPath::SparkSql, false)
            .unwrap_err();
        assert_eq!(err.code(), "UNSUPPORTED_HIVE_TYPE");
        s.config.set(crate::config::INTERVAL_AS_STRING, "true");
        s.create_hive_table("t", &schema, StorageFormat::Orc, DdlPath::SparkSql, false)
            .unwrap();
        let def = s.table_def("t").unwrap();
        assert_eq!(def.columns[0].hive_type, HiveType::Str);
    }

    #[test]
    fn write_read_round_trip_via_spark_serde() {
        let (s, _) = session();
        let schema = vec![StructField::new("a", DataType::Int)];
        s.create_hive_table("t", &schema, StorageFormat::Orc, DdlPath::DataFrame, false)
            .unwrap();
        let def = s.table_def("t").unwrap();
        let resolved = s.resolve_schema(&def);
        let col = ValueColumn::from_values(&DataType::Int, &[Value::Int(1), Value::Int(2)]);
        s.write_columns(&def, &resolved, std::slice::from_ref(&col))
            .unwrap();
        assert_eq!(s.read_columns(&def, &resolved).unwrap(), vec![col]);
        s.drop_table("t", false).unwrap();
        assert!(s.table_def("t").is_err());
    }
}
